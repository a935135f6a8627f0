package security

import (
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"

	"watchdog/internal/asm"
)

// Annotated .wdasm cases: suite extensions authored directly in WD64
// assembly instead of Go combinators. The file body is the text of
// main (the harness places the label; the body must end with ret and
// may define helper functions after it). Metadata rides annotation
// lines beginning ";;" — ordinary comments to the assembler:
//
//	;; case: cwe=415 variant=double-free/straight bad
//	;; expect: watchdog=detect location=miss ...
//
// The "case" line declares CWE, variant and bad/good; the optional
// "expect" line carries per-policy expected verdicts overriding the
// built-in ExpectedDetected matrix.

//go:embed cases/*.wdasm
var wdasmFS embed.FS

// WdasmCases returns the shipped assembly-authored extension cases
// (CWE-415 double free and CWE-590 invalid free, with per-policy
// expected-verdict annotations), sorted by ID.
func WdasmCases() []Case {
	cases, err := loadWdasm(wdasmFS, "cases")
	if err != nil {
		panic(fmt.Sprintf("embedded case %v", err))
	}
	return cases
}

// BuiltinCases returns Suite followed by WdasmCases: the case list
// watchdog-juliet runs (before any -cases directory) and POST
// /v1/juliet answers.
func BuiltinCases() []Case { return append(Suite(), WdasmCases()...) }

// LoadWdasmDir loads every .wdasm case file in dir (the
// watchdog-juliet -cases flag), sorted by ID.
func LoadWdasmDir(dir string) ([]Case, error) {
	cases, err := loadWdasm(os.DirFS(dir), ".")
	if err != nil {
		return nil, fmt.Errorf("case directory %s: %w", dir, err)
	}
	return cases, nil
}

// loadWdasm parses every .wdasm file in dir of fsys (the embedded
// cases or a -cases directory), sorted by ID.
func loadWdasm(fsys fs.FS, dir string) ([]Case, error) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	var out []Case
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".wdasm")
		if e.IsDir() || !ok {
			continue
		}
		src, err := fs.ReadFile(fsys, path.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		c, err := ParseWdasmCase(id, string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ParseWdasmCase parses one annotated case. The source is
// trial-assembled so syntax errors surface at load time rather than
// mid-suite.
func ParseWdasmCase(id, src string) (Case, error) {
	c := Case{ID: id}
	seenCase := false
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, ";;") {
			continue
		}
		key, rest, ok := strings.Cut(strings.TrimSpace(strings.TrimPrefix(line, ";;")), ":")
		if !ok {
			continue // plain double-semicolon comment
		}
		rest = strings.TrimSpace(rest)
		switch strings.TrimSpace(key) {
		case "case":
			seenCase = true
			for _, tok := range strings.Fields(rest) {
				switch {
				case tok == "bad":
					c.Bad = true
				case tok == "good":
					c.Bad = false
				case strings.HasPrefix(tok, "cwe="):
					n, err := strconv.Atoi(tok[len("cwe="):])
					if err != nil {
						return Case{}, fmt.Errorf("line %d: bad cwe token %q", ln+1, tok)
					}
					c.CWE = n
				case strings.HasPrefix(tok, "variant="):
					c.Variant = tok[len("variant="):]
				case strings.HasPrefix(tok, "id="):
					c.ID = tok[len("id="):]
				default:
					return Case{}, fmt.Errorf("line %d: unknown case token %q", ln+1, tok)
				}
			}
		case "expect":
			if c.Expect == nil {
				c.Expect = make(map[string]bool)
			}
			for _, tok := range strings.Fields(rest) {
				name, verdict, ok := strings.Cut(tok, "=")
				if !ok {
					return Case{}, fmt.Errorf("line %d: bad expect token %q (want policy=detect|miss)", ln+1, tok)
				}
				if !knownPolicy(name) {
					return Case{}, fmt.Errorf("line %d: unknown policy %q", ln+1, name)
				}
				switch verdict {
				case "detect":
					c.Expect[name] = true
				case "miss":
					c.Expect[name] = false
				default:
					return Case{}, fmt.Errorf("line %d: bad verdict %q (want detect|miss)", ln+1, verdict)
				}
			}
		}
	}
	if !seenCase {
		return Case{}, fmt.Errorf("missing ';; case:' annotation")
	}
	if err := asm.Parse(asm.NewBuilder(), src); err != nil {
		return Case{}, err
	}
	body := src
	c.Build = func(b *asm.Builder, uid string) {
		if err := asm.Parse(b, body); err != nil {
			panic(err) // unreachable: the same source trial-assembled above
		}
	}
	return c, nil
}

func knownPolicy(name string) bool {
	for _, p := range Policies() {
		if p == name {
			return true
		}
	}
	return false
}
