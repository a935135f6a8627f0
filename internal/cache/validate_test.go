package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestHierConfigValidate refuses a bad value of every integer field of
// HierConfig, and of cache.Config at every level, with an error naming
// the field. A field added to either struct without bad values here
// fails the test. The lock level is checked only while the lock cache
// is enabled. The Table 2 default, LockSweep's 1–8 KB lock caches and
// the smallest legal values pass.
func TestHierConfigValidate(t *testing.T) {
	// Bad values of a level's fields, from the level's default geometry.
	levelBad := map[string]func(Config) []int{
		"SizeBytes": func(c Config) []int {
			return []int{0, -c.SizeBytes, c.SizeBytes + c.BlockBytes, c.Ways * c.BlockBytes / 2}
		},
		"Ways":          func(Config) []int { return []int{0, -1} },
		"BlockBytes":    func(Config) []int { return []int{0, -64, 48} },
		"Latency":       func(Config) []int { return []int{-1, -5} },
		"Streams":       func(Config) []int { return []int{-1} },
		"PrefetchDepth": func(Config) []int { return []int{-1} },
	}
	topBad := map[string][]int{
		"DRAMLatency":    {-1},
		"TLBWalkPenalty": {-1},
		"ITLBEntries":    {0, -4, 6},
		"DTLBEntries":    {0, -4, 6},
		"LockTLBEntries": {0, -4, 2},
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
