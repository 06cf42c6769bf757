package cache

// This file checks the packed rank-byte LRU layout against the layout it
// replaced: a naive cache that stamps every access with a global clock and,
// on a miss, scans the set for the oldest stamp. Every hit/miss answer and
// every Contains answer must agree, at every associativity the simulator
// uses and across Flush.

import (
	"math/rand"
	"testing"
)

// refLRU is the stamp-scan reference: one global access stamp per probe,
// and a miss evicts the way with the oldest stamp, the first minimum
// winning (so free ways, stamp 0, fill in index order).
type refLRU struct {
	ways  int
	mask  uint32
	tags  []uint32
	stamp []uint64
	clock uint64
}

func newRefLRU(cfg Config) *refLRU {
	sets := cfg.Sets()
	return &refLRU{
		ways:  cfg.Ways,
		mask:  uint32(sets - 1),
		tags:  make([]uint32, sets*cfg.Ways),
		stamp: make([]uint64, sets*cfg.Ways),
	}
}

func (r *refLRU) access(line uint32) bool {
	base := int(line&r.mask) * r.ways
	tag := line + 1
	r.clock++
	victim := base
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == tag {
			r.stamp[i] = r.clock
			return true
		}
		if r.stamp[i] < r.stamp[victim] {
			victim = i
		}
	}
	r.tags[victim] = tag
	r.stamp[victim] = r.clock
	return false
}

func (r *refLRU) contains(line uint32) bool {
	base := int(line&r.mask) * r.ways
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == line+1 {
			return true
		}
	}
	return false
}

func (r *refLRU) flush() {
	clear(r.tags)
	clear(r.stamp)
}

// lruOp is one trace step: a line access, or a Flush.
type lruOp struct {
	flush bool
	line  uint32
}

// lruGeometries are the associativities under test: every power of two up
// to the LLC's 16, ways that leave part of a rank word unused, the
// associativity cap, and the default L1, L2 and LLC.
var lruGeometries = []Config{
	{Size: 8 * 1 * LineSize, Ways: 1},
	{Size: 8 * 2 * LineSize, Ways: 2},
	{Size: 4 * 3 * LineSize, Ways: 3},
	{Size: 8 * 4 * LineSize, Ways: 4},
	{Size: 8 * 8 * LineSize, Ways: 8},
	{Size: 4 * 12 * LineSize, Ways: 12},
	{Size: 8 * 16 * LineSize, Ways: 16},
	{Size: 2 * maxWays * LineSize, Ways: maxWays},
	{Size: 32 << 10, Ways: 8},  // L1
	{Size: 256 << 10, Ways: 8}, // L2
	{Size: 2 << 20, Ways: 16},  // LLC
}

// runLRUTrace replays ops on the cache and on the reference, failing on
// the first hit/miss disagreement, and after every Flush and at the end
// compares Contains for every line the trace touches.
func runLRUTrace(t *testing.T, cfg Config, ops []lruOp) {
	t.Helper()
	c, ref := New(cfg), newRefLRU(cfg)
	var lines []uint32
	seen := map[uint32]bool{}
	sweep := func(step int) {
		t.Helper()
		for _, line := range lines {
			if got, want := c.Contains(line<<LineShift), ref.contains(line); got != want {
				t.Fatalf("%+v: after op %d: Contains(line %#x) = %v, reference %v", cfg, step, line, got, want)
			}
		}
	}
	for i, op := range ops {
		if op.flush {
			sweep(i)
			c.Flush()
			ref.flush()
			continue
		}
		if !seen[op.line] {
			seen[op.line] = true
			lines = append(lines, op.line)
		}
		if got, want := c.AccessLine(op.line), ref.access(op.line); got != want {
			t.Fatalf("%+v: op %d: AccessLine(%#x) hit = %v, reference %v", cfg, i, op.line, got, want)
		}
	}
	sweep(len(ops))
}

// randomLRUTrace draws n ops over a few hot sets, each with a pool of
// tags half again the associativity, so sets fill, hit, evict and refill;
// one op in three repeats one of the last two lines (the MRU fast path)
// and one in 300 is a Flush.
func randomLRUTrace(rng *rand.Rand, cfg Config, n int) []lruOp {
	sets := uint32(cfg.Sets())
	hot := make([]uint32, min(int(sets), 3))
	for i := range hot {
		hot[i] = uint32(rng.Intn(int(sets)))
	}
	pool := cfg.Ways + cfg.Ways/2 + 1
	ops := make([]lruOp, n)
	for i := range ops {
		switch {
		case rng.Intn(300) == 0:
			ops[i].flush = true
		case i >= 2 && rng.Intn(3) == 0:
			ops[i] = ops[i-1-rng.Intn(2)]
			ops[i].flush = false
		default:
			ops[i].line = uint32(rng.Intn(pool))*sets + hot[rng.Intn(len(hot))]
		}
	}
	return ops
}

func TestLRUEquivalence(t *testing.T) {
	for _, cfg := range lruGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			runLRUTrace(t, cfg, randomLRUTrace(rng, cfg, 4000))
		}
	}
}

// FuzzLRUEquivalence lets the fuzzer hunt for traces that split the rank
// layout from the stamp scan. The first byte picks the geometry; each
// following byte pair is one op: 0xFF then anything is a Flush, otherwise
// the first byte picks one of four sets and the second one of 64 tags.
func FuzzLRUEquivalence(f *testing.F) {
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0xFF, 0, 0, 1})
	f.Add([]byte{10, 1, 0, 1, 16, 1, 32, 1, 0, 2, 48})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := lruGeometries[int(data[0])%len(lruGeometries)]
		sets := uint32(cfg.Sets())
		var ops []lruOp
		for i := 1; i+2 <= len(data) && len(ops) < 2048; i += 2 {
			if data[i] == 0xFF {
				ops = append(ops, lruOp{flush: true})
				continue
			}
			set := uint32(data[i]&3) & (sets - 1)
			ops = append(ops, lruOp{line: uint32(data[i+1]&63)*sets + set})
		}
		runLRUTrace(t, cfg, ops)
	})
}
