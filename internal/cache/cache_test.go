package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config { return Config{Size: 1 << 10, Ways: 2} } // 8 sets

func TestMissThenHit(t *testing.T) {
	c := New(testConfig())
	if c.Access(0x1000) {
		t.Error("first access hit a cold cache")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x103F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Error("next line hit without being loaded")
	}
}

func TestSetConflictEviction(t *testing.T) {
	c := New(testConfig()) // 8 sets, 2 ways; same set every 8 lines = 512 bytes
	a, b, d := uint32(0x0000), uint32(0x0200), uint32(0x0400)
	c.Access(a)
	c.Access(b)
	// Set is full; a is LRU. Accessing d evicts a.
	c.Access(d)
	if c.Contains(a) {
		t.Error("LRU line not evicted")
	}
	if !c.Contains(b) || !c.Contains(d) {
		t.Error("wrong line evicted")
	}
}

func TestLRUOrderRespected(t *testing.T) {
	c := New(testConfig())
	a, b, d := uint32(0x0000), uint32(0x0200), uint32(0x0400)
	c.Access(a)
	c.Access(b)
	c.Access(a) // refresh a; now b is LRU
	c.Access(d)
	if c.Contains(b) {
		t.Error("refreshed line evicted instead of LRU")
	}
	if !c.Contains(a) {
		t.Error("recently used line evicted")
	}
}

func TestFlush(t *testing.T) {
	c := New(testConfig())
	c.Access(0x1000)
	c.Flush()
	if c.Contains(0x1000) {
		t.Error("flush left a line resident")
	}
	if c.Access(0x1000) {
		t.Error("post-flush access hit")
	}
}

func TestDegenerateConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		panic bool
	}{
		{"non-power-of-two sets", Config{Size: 3 * LineSize, Ways: 1}, true},
		{"zero ways", Config{Size: 1 << 10, Ways: 0}, true},
		{"negative ways", Config{Size: 1 << 10, Ways: -1}, true},
		{"max ways", Config{Size: maxWays * LineSize, Ways: maxWays}, false},
		{"above max ways", Config{Size: (maxWays + 1) * LineSize, Ways: maxWays + 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if !tc.panic {
					if r != nil {
						t.Errorf("New(%+v) panicked: %v", tc.cfg, r)
					}
					return
				}
				// The package's own message, not a runtime error such as
				// an integer divide by zero.
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "cache: ") {
					t.Errorf("New(%+v) recovered %v, want a cache: panic", tc.cfg, r)
				}
			}()
			New(tc.cfg)
		})
	}
}

// Property: immediately after Access(addr), Contains(addr) is always true —
// an access always leaves the line resident.
func TestQuickAccessLeavesResident(t *testing.T) {
	c := New(Config{Size: 32 << 10, Ways: 8})
	f := func(addr uint32) bool {
		c.Access(addr)
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the number of resident lines never exceeds capacity. We probe by
// filling far beyond capacity and verifying that at most Ways lines of any
// one set are resident.
func TestQuickCapacityRespected(t *testing.T) {
	cfg := Config{Size: 1 << 10, Ways: 2}
	c := New(cfg)
	f := func(seeds []uint32) bool {
		for _, s := range seeds {
			c.Access(s)
		}
		// Count residents mapping to set 0: lines where (line & setMask) == 0.
		resident := 0
		for i := 0; i < 4096; i++ {
			addr := uint32(i) * uint32(cfg.Sets()) * LineSize // all map to set 0
			if c.Contains(addr) {
				resident++
			}
		}
		return resident <= cfg.Ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
