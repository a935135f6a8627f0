package security

import (
	"context"
	"errors"
	"fmt"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/fuzzgen"
	"watchdog/internal/machine"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
	"watchdog/internal/trace"
)

// genInstLimit bounds every run of a generated program.
const genInstLimit = 10_000_000

// Verdicts is what Judge found on one generated program.
type Verdicts struct {
	// Checksum is the program's output under the baseline.
	Checksum int64
	// Detected maps each configuration the program ran under to
	// whether it faulted at the planted access.
	Detected map[string]bool
}

// Judge runs the generated program o describes, functionally, under
// the baseline and the policy family, and holds each run to the claims
// the paper's comparison of checking schemes makes (Section 9.2,
// Table 1):
//
//   - a safe program completes with the baseline checksum and no
//     violation under every configuration: the -policy vocabulary,
//     xtag at every width from 1 to 8 bits (xtag-1b ... xtag-8b), and
//     bounds-1uop and bounds-2uop on the bounds runtime;
//   - a planted use-after-free faults at the planted pc under
//     watchdog, conservative, software and dangkiller. location misses
//     it, silently, with the baseline checksum: the generator plants
//     every one through a reallocated block. xtag at width w misses
//     it, silently, exactly when the dangling key and the value at its
//     lock location agree in their low w bits; both come from the
//     watchdog run's one check of the planted access, never from
//     xtag's tag table, so a wrong xtag fact cannot move the verdict
//     and the expectation together;
//   - a planted out-of-bounds read completes under the schemes without
//     bounds checking and faults at the planted pc under both bounds
//     modes. location and xtag catch some as a side effect the paper
//     claims nothing about, so they do not run it.
//
// Anything else is an error that names the program, the configuration
// and the broken rule. Judge generates the program once per runtime
// flavour (rt.For), so o.Policy and o.Bounds are ignored.
func Judge(ctx context.Context, o fuzzgen.Options) (Verdicts, error) {
	j := judge{ctx: ctx, opts: o, progs: make(map[rt.Options]generated)}
	fail := func(config, claim string, err error) error {
		ops := ""
		if o.Ops != 0 {
			ops = fmt.Sprintf(", %d ops", o.Ops)
		}
		return fmt.Errorf("referee: %s program, seed %d%s, under %s: %s: %w", o.Bug, o.Seed, ops, config, claim, err)
	}
	base, _, err := j.run(core.Config{Policy: core.PolicyBaseline}, nil)
	if err == nil {
		err = completed(base)
	}
	if err != nil {
		return Verdicts{}, fail("baseline", "the baseline completes with a checksum", err)
	}
	v := Verdicts{Checksum: base.Output[0], Detected: make(map[string]bool)}
	var planted plantedCheck
	for _, c := range refereeConfigs {
		r, ok := ruleFor(c.cfg, o.Bug, planted.ev)
		if !ok {
			continue
		}
		var observe *plantedCheck
		if o.Bug == fuzzgen.BugUAF && c.name == "watchdog" {
			observe = &planted
		}
		res, bugPC, err := j.run(c.cfg, observe)
		if err == nil {
			err = r.check(res, bugPC, v.Checksum)
		}
		if err == nil && observe != nil && planted.n != 1 {
			r.claim = "watchdog checks the planted access exactly once"
			err = fmt.Errorf("%d checks at pc %d", planted.n, bugPC)
		}
		if err != nil {
			return v, fail(c.name, r.claim, err)
		}
		v.Detected[c.name] = r.detect
	}
	return v, nil
}

// refereeConfigs lists the configurations Judge runs, in order: the
// -policy vocabulary, with xtag at each width, then the bounds modes.
// watchdog leads, so the run xtag's verdicts are derived from precedes
// them.
var refereeConfigs = func() []policy {
	var cs []policy
	for _, p := range policies {
		if p.cfg.Policy != core.PolicyXTag {
			cs = append(cs, p)
			continue
		}
		for w := 1; w <= 8; w++ {
			p.cfg.TagBits = w
			cs = append(cs, policy{fmt.Sprintf("xtag-%db", w), p.cfg})
		}
	}
	fused, separate := core.DefaultConfig(), core.DefaultConfig()
	fused.Bounds, separate.Bounds = core.BoundsFused, core.BoundsSeparate
	return append(cs, policy{"bounds-1uop", fused}, policy{"bounds-2uop", separate})
}()

// rule is one claim a configuration's run of a generated program must
// meet: a fault of kind at the planted pc when detect is set, else
// completion with one checksum, the baseline's when same is set.
type rule struct {
	claim  string
	detect bool
	kind   core.ErrorKind
	same   bool
}

var (
	ruleSafe      = rule{claim: "a safe program completes with the baseline checksum and no violation", same: true}
	ruleUAFCaught = rule{claim: "an identifier scheme faults with use-after-free at the planted pc", detect: true, kind: core.ErrUseAfterFree}
	ruleRealloc   = rule{claim: "location misses a use-after-free through a reallocated block, silently, with the baseline checksum", same: true}
	ruleTagAlias  = rule{claim: "xtag misses a use-after-free whose dangling key and lock value agree in the tag's bits, silently, with the baseline checksum", same: true}
	ruleTagDiffer = rule{claim: "xtag faults with use-after-free at the planted pc when the dangling key and lock value differ in the tag's bits", detect: true, kind: core.ErrUseAfterFree}
	ruleOOBMissed = rule{claim: "an out-of-bounds read completes without bounds checking"}
	ruleOOBCaught = rule{claim: "a bounds mode faults with out-of-bounds at the planted pc", detect: true, kind: core.ErrOutOfBounds}
)

// ruleFor returns the rule cfg must meet on a program with the bug, or
// false when the paper claims nothing about the pair, which then does
// not run. planted is the watchdog run's check of a planted
// use-after-free.
func ruleFor(cfg core.Config, bug fuzzgen.Bug, planted trace.Event) (rule, bool) {
	bounds := cfg.Bounds != core.BoundsOff
	switch bug {
	case fuzzgen.BugNone:
		return ruleSafe, true
	case fuzzgen.BugUAF:
		switch {
		case bounds:
			return rule{}, false
		case cfg.Policy == core.PolicyLocation:
			return ruleRealloc, true
		case cfg.Policy == core.PolicyXTag && xtagMisses(planted.Key, planted.LockVal, cfg.TagBits):
			return ruleTagAlias, true
		case cfg.Policy == core.PolicyXTag:
			return ruleTagDiffer, true
		}
		return ruleUAFCaught, true
	case fuzzgen.BugOOB:
		switch {
		case bounds:
			return ruleOOBCaught, true
		case cfg.Policy == core.PolicyLocation || cfg.Policy == core.PolicyXTag:
			return rule{}, false
		}
		return ruleOOBMissed, true
	}
	return rule{}, false
}

// xtagMisses reports whether a w-bit tag misses a dangling dereference:
// the dangling pointer's key and the key now at its lock location, the
// reallocation's, agree modulo 2^w (xTag, arXiv 2203.04117).
func xtagMisses(key, lockVal uint64, w int) bool {
	return (key^lockVal)&(1<<uint(w)-1) == 0
}

// check returns how res broke r, or nil. bugPC is the planted access
// and checksum the baseline's output.
func (r rule) check(res *machine.Result, bugPC int, checksum int64) error {
	if r.detect && res.MemErr != nil {
		if res.MemErr.Kind != r.kind || res.MemErr.PC != bugPC {
			return fmt.Errorf("faulted with %v at pc %d; planted at pc %d", res.MemErr.Kind, res.MemErr.PC, bugPC)
		}
		return nil
	}
	if err := completed(res); err != nil {
		return err
	}
	switch {
	case r.detect:
		return fmt.Errorf("missed: completed with checksum %d", res.Output[0])
	case r.same && res.Output[0] != checksum:
		return fmt.Errorf("checksum %d; baseline %d", res.Output[0], checksum)
	}
	return nil
}

// completed returns how res failed to complete with one checksum and
// no violation, or nil.
func completed(res *machine.Result) error {
	switch {
	case res.MemErr != nil:
		return fmt.Errorf("faulted: %v", res.MemErr)
	case res.Aborted:
		return fmt.Errorf("runtime abort %d", res.AbortCode)
	case len(res.Output) != 1:
		return fmt.Errorf("printed %d values, want one checksum", len(res.Output))
	}
	return nil
}

// plantedCheck counts a run's checks of the planted access and keeps
// the last one.
type plantedCheck struct {
	n  int
	ev trace.Event
}

// judge holds one Judge call's programs, one per runtime flavour.
type judge struct {
	ctx   context.Context
	opts  fuzzgen.Options
	progs map[rt.Options]generated
}

// generated is one runtime flavour's program and where its runtime
// ends and its bug is planted.
type generated struct {
	prog  *asm.Program
	rtEnd int
	bugPC int
}

// run runs the program for cfg's runtime flavour under cfg, generating
// it on the flavour's first run, and returns the result and the
// planted pc. A non-nil planted observes the run's checks.
func (j *judge) run(cfg core.Config, planted *plantedCheck) (*machine.Result, int, error) {
	ro := rt.For(cfg)
	g, ok := j.progs[ro]
	if !ok {
		o := j.opts
		o.Policy, o.Bounds = ro.Policy, ro.Bounds
		prog, rtEnd, bugPC, err := fuzzgen.Generate(o)
		if err != nil {
			return nil, 0, fmt.Errorf("generate: %w", err)
		}
		if o.Bug != fuzzgen.BugNone && bugPC < 0 {
			return nil, 0, errors.New("generate: no bug planted")
		}
		g = generated{prog, rtEnd, bugPC}
		j.progs[ro] = g
	}
	sc := sim.Config{Core: cfg, RuntimeEnd: g.rtEnd, InstLimit: genInstLimit}
	if planted != nil {
		sc.Sink = trace.New(trace.Config{})
		sc.Sink.SetObserver(func(ev trace.Event) {
			if ev.Kind == trace.KindCheck && ev.PC == g.bugPC {
				planted.n++
				planted.ev = ev
			}
		})
	}
	res, err := sim.RunCtx(j.ctx, g.prog, sc)
	return res, g.bugPC, err
}
