package cache

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestHierConfigValidate refuses a bad value of every integer field of
// HierConfig, and of cache.Config at every level, with an error naming
// the field. A field added to either struct without bad values here
// fails the test. The lock level is checked only while the lock cache
// is enabled. Bad values include levels and TLBs one set past MaxSets,
// a 2^40-byte level, which New would give a 2^30-word directory, and
// prefetchers past MaxStreams or MaxPrefetchDepth, which New would give
// 2^50 stream slots or a hit would loop 2^40 times over; only Validate
// runs, so nothing that large is allocated or looped over. The Table 2
// default, LockSweep's 1–8 KB lock caches and the smallest and largest
// legal values pass.
func TestHierConfigValidate(t *testing.T) {
	// Bad values of a level's fields, from the level's default geometry.
	levelBad := map[string]func(Config) []int{
		"SizeBytes": func(c Config) []int {
			return []int{0, -c.SizeBytes, c.SizeBytes + c.BlockBytes, c.Ways * c.BlockBytes / 2,
				(MaxSets + 1) * c.Ways * c.BlockBytes, 1 << 40}
		},
		"Ways":          func(Config) []int { return []int{0, -1, MaxWays + 1} },
		"BlockBytes":    func(Config) []int { return []int{0, -64, 48} },
		"Latency":       func(Config) []int { return []int{-1, -5} },
		"Streams":       func(Config) []int { return []int{-1, MaxStreams + 1, 1 << 50} },
		"PrefetchDepth": func(Config) []int { return []int{-1, MaxPrefetchDepth + 1, 1 << 40} },
	}
	topBad := map[string][]int{
		"DRAMLatency":    {-1},
		"TLBWalkPenalty": {-1},
		"ITLBEntries":    {0, -4, 6, tlbWays * (MaxSets + 1)},
		"DTLBEntries":    {0, -4, 6, tlbWays * (MaxSets + 1)},
		"LockTLBEntries": {0, -4, 2, 1 << 40},
	}
	refused := func(name string, cfg HierConfig) {
		t.Helper()
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), name+" is") {
			t.Errorf("%s: err = %v, want an error naming %s", name, err, name)
		}
	}

	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.Type.Kind() == reflect.Int && levelBad[f.Name] == nil {
			t.Errorf("Config.%s has no bad values in this test", f.Name)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(HierConfig{})) {
		switch f.Type {
		case reflect.TypeOf(Config{}):
			for field, bad := range levelBad {
				for _, v := range bad(reflect.ValueOf(DefaultHierConfig()).FieldByIndex(f.Index).Interface().(Config)) {
					cfg := DefaultHierConfig()
					reflect.ValueOf(&cfg).Elem().FieldByIndex(f.Index).FieldByName(field).SetInt(int64(v))
					refused(f.Name+"."+field, cfg)
					if f.Name == "Lock" {
						cfg.LockCacheEnabled = false
						if err := cfg.Validate(); err != nil {
							t.Errorf("Lock.%s = %d with the lock cache off: %v", field, v, err)
						}
					}
				}
			}
		case reflect.TypeOf(0):
			if topBad[f.Name] == nil {
				t.Errorf("HierConfig.%s has no bad values in this test", f.Name)
			}
			for _, v := range topBad[f.Name] {
				cfg := DefaultHierConfig()
				reflect.ValueOf(&cfg).Elem().FieldByIndex(f.Index).SetInt(int64(v))
				refused(f.Name, cfg)
			}
		}
	}

	good := map[string]func(*HierConfig){
		"default": func(*HierConfig) {},
		"zero latencies, no prefetch": func(c *HierConfig) {
			for _, l := range []*Config{&c.L1I, &c.L1D, &c.L2, &c.L3, &c.Lock} {
				l.Latency, l.Streams, l.PrefetchDepth = 0, 0, 0
			}
			c.DRAMLatency, c.TLBWalkPenalty = 0, 0
		},
		"one-line levels, 4-entry TLBs": func(c *HierConfig) {
			for _, l := range []*Config{&c.L1I, &c.L1D, &c.L2, &c.L3, &c.Lock} {
				l.SizeBytes, l.Ways, l.BlockBytes = 1, 1, 1
			}
			c.ITLBEntries, c.DTLBEntries, c.LockTLBEntries = 4, 4, 4
		},
		"largest levels and TLBs": func(c *HierConfig) {
			for _, l := range []*Config{&c.L1I, &c.L1D, &c.L2, &c.L3, &c.Lock} {
				l.SizeBytes, l.Ways = MaxSets*MaxWays*l.BlockBytes, MaxWays
			}
			c.ITLBEntries, c.DTLBEntries, c.LockTLBEntries = tlbWays*MaxSets, tlbWays*MaxSets, tlbWays*MaxSets
		},
		"largest prefetchers": func(c *HierConfig) {
			for _, l := range []*Config{&c.L1I, &c.L1D, &c.L2, &c.L3, &c.Lock} {
				l.Streams, l.PrefetchDepth = MaxStreams, MaxPrefetchDepth
			}
		},
	}
	for _, kb := range []int{1, 2, 4, 8} { // LockSweep's default sizes
		good[fmt.Sprintf("%d KB lock cache", kb)] = func(c *HierConfig) { c.Lock.SizeBytes = kb << 10 }
	}
	for name, set := range good {
		cfg := DefaultHierConfig()
		set(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMissLatency: the longest latency is a TLB walk, the slowest L1,
// L2, L3 and DRAM; the lock level counts only while enabled, and a sum
// past math.MaxInt saturates instead of wrapping negative.
func TestMissLatency(t *testing.T) {
	c := DefaultHierConfig()
	if got := c.MissLatency(); got != 30+3+10+25+60 {
		t.Errorf("default: MissLatency = %d, want 128", got)
	}
	c.Lock.Latency = 50
	if got := c.MissLatency(); got != 30+50+10+25+60 {
		t.Errorf("50-cycle lock cache: MissLatency = %d, want 175", got)
	}
	c.LockCacheEnabled = false
	if got := c.MissLatency(); got != 128 {
		t.Errorf("50-cycle lock cache, disabled: MissLatency = %d, want 128", got)
	}
	c.DRAMLatency, c.L3.Latency = math.MaxInt, math.MaxInt
	if got := c.MissLatency(); got != math.MaxInt {
		t.Errorf("MaxInt DRAM and L3: MissLatency = %d, want math.MaxInt", got)
	}
}
