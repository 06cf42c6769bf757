package core

import (
	"testing"
	"testing/quick"

	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

func newPolicy(t *testing.T, opts Options) (*Policy, *harden.Ctx) {
	t.Helper()
	env := harden.NewEnv(machine.DefaultConfig())
	pl := New(env, opts)
	return pl, harden.NewCtx(pl, env.M.NewThread())
}

// TestPtrLayout verifies the Figure 5 representation.
func TestPtrLayout(t *testing.T) {
	p := Tag(0x1234_5678, 0x1234_5690)
	if ExtractP(p) != 0x1234_5678 {
		t.Errorf("ExtractP = %#x", ExtractP(p))
	}
	if ExtractUB(p) != 0x1234_5690 {
		t.Errorf("ExtractUB = %#x", ExtractUB(p))
	}
}

// Property: Tag/Extract round-trips for any (addr, ub) pair.
func TestQuickTagRoundTrip(t *testing.T) {
	f := func(addr, ub uint32) bool {
		p := Tag(addr, ub)
		return ExtractP(p) == addr && ExtractUB(p) == ub
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Confine never alters the upper-bound tag, for any delta — the
// §3.2 defence against integer overflows forging bounds.
func TestQuickConfinePreservesTag(t *testing.T) {
	f := func(addr, ub uint32, delta int64) bool {
		p := Confine(Tag(addr, ub), delta)
		return ExtractUB(p) == ub && ExtractP(p) == uint32(int64(uint64(addr))+delta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BoundsViolated is exact — an access is flagged iff some byte of
// it lies outside [lb, ub).
func TestQuickBoundsViolatedExact(t *testing.T) {
	f := func(base uint16, size uint8, off int8) bool {
		lb := uint32(base) + 0x1000
		ub := lb + 64
		addr := uint32(int64(lb) + int64(off))
		sz := uint32(size%16) + 1
		want := int64(addr) < int64(lb) || int64(addr)+int64(sz) > int64(ub)
		return BoundsViolated(addr, sz, lb, ub) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInBoundsAccesses(t *testing.T) {
	_, c := newPolicy(t, Options{})
	p := c.Malloc(64)
	for off := int64(0); off < 64; off += 8 {
		c.StoreAt(p, off, 8, uint64(off)*3)
	}
	for off := int64(0); off < 64; off += 8 {
		if got := c.LoadAt(p, off, 8); got != uint64(off)*3 {
			t.Errorf("LoadAt(%d) = %d", off, got)
		}
	}
}

func TestLowerBoundStoredAfterObject(t *testing.T) {
	pl, c := newPolicy(t, Options{})
	p := c.Malloc(40)
	base, ub := ExtractP(p), ExtractUB(p)
	if ub != base+40 {
		t.Fatalf("UB = base+%d, want base+40", ub-base)
	}
	// extract_LB: the word at UB holds the object base.
	if lb := uint32(pl.env.M.AS.Load(ub, 4)); lb != base {
		t.Errorf("LB word = %#x, want %#x", lb, base)
	}
}

func TestOffByOneDetected(t *testing.T) {
	_, c := newPolicy(t, Options{})
	p := c.Malloc(64)
	out := harden.Capture(func() { c.StoreAt(p, 64, 1, 0xFF) })
	if out.Violation == nil {
		t.Fatalf("off-by-one store not detected: %v", out)
	}
	if out.Violation.Policy != "sgxbounds" {
		t.Errorf("violation policy = %q", out.Violation.Policy)
	}
}

func TestUnderflowDetected(t *testing.T) {
	_, c := newPolicy(t, Options{})
	p := c.Malloc(64)
	out := harden.Capture(func() { c.LoadAt(p, -1, 1) })
	if out.Violation == nil {
		t.Error("negative-offset load not detected")
	}
}

func TestAccessSizeConsidered(t *testing.T) {
	// An 8-byte load starting 4 bytes before the end must be flagged even
	// though its first byte is in bounds.
	_, c := newPolicy(t, Options{})
	p := c.Malloc(64)
	out := harden.Capture(func() { c.LoadAt(p, 60, 8) })
	if out.Violation == nil {
		t.Error("straddling access not detected")
	}
}

func TestIntegerOverflowCannotForgeBounds(t *testing.T) {
	// A delta that would carry into the high 32 bits must wrap within the
	// low half and be caught, not corrupt the tag.
	_, c := newPolicy(t, Options{})
	p := c.Malloc(64)
	q := c.Add(p, 1<<33) // would set tag bits if not confined
	if ExtractUB(q) != ExtractUB(p) {
		t.Fatal("pointer arithmetic corrupted the upper bound")
	}
	out := harden.Capture(func() { c.Store(c.Add(p, 1<<32|64), 1, 0) })
	if out.Violation == nil {
		t.Error("wrapped out-of-bounds store not detected")
	}
}

func TestPointerInheritanceThroughMemory(t *testing.T) {
	// Spilling and reloading a pointer preserves its bounds with no extra
	// metadata operations (§3.2 "no instrumentation needed").
	_, c := newPolicy(t, Options{})
	obj := c.Malloc(32)
	slot := c.Malloc(8)
	c.StorePtrAt(slot, 0, obj)
	got := c.LoadPtrAt(slot, 0)
	if got != obj {
		t.Fatalf("pointer round trip: %#x != %#x", got, obj)
	}
	out := harden.Capture(func() { c.StoreAt(got, 32, 1, 0) })
	if out.Violation == nil {
		t.Error("bounds lost through pointer spill/fill")
	}
}

func TestIntegerCastSurvives(t *testing.T) {
	// §3.2 "Type casts": a pointer cast to an integer and back keeps its
	// tag as long as the integer's high bits are untouched. Our Ptr type is
	// already the integer representation, so this is the identity — assert
	// it explicitly as the documented contract.
	_, c := newPolicy(t, Options{})
	p := c.Malloc(16)
	asInt := uint64(p)
	back := harden.Ptr(asInt)
	if ExtractUB(back) != ExtractUB(p) {
		t.Error("integer cast lost the tag")
	}
}

func TestGlobalAndStackObjects(t *testing.T) {
	_, c := newPolicy(t, Options{})
	g := c.Global(24)
	out := harden.Capture(func() { c.StoreAt(g, 24, 1, 0) })
	if out.Violation == nil {
		t.Error("global overflow not detected")
	}
	f := c.PushFrame()
	s := f.Alloc(16)
	c.StoreAt(s, 15, 1, 7)
	out = harden.Capture(func() { c.StoreAt(s, 16, 1, 0) })
	if out.Violation == nil {
		t.Error("stack overflow not detected")
	}
	f.Pop()
}

func TestCallocZeroes(t *testing.T) {
	_, c := newPolicy(t, Options{})
	p := c.Calloc(8, 8)
	for off := int64(0); off < 64; off += 8 {
		if got := c.LoadAt(p, off, 8); got != 0 {
			t.Errorf("calloc memory not zeroed at %d: %#x", off, got)
		}
	}
}

func TestReallocPreservesPrefixAndBounds(t *testing.T) {
	pl, c := newPolicy(t, Options{})
	p := c.Malloc(16)
	c.StoreAt(p, 0, 8, 0xAABB)
	q := pl.Realloc(c.T, p, 64)
	if got := c.LoadAt(q, 0, 8); got != 0xAABB {
		t.Errorf("realloc lost data: %#x", got)
	}
	c.StoreAt(q, 63, 1, 1) // new space is in bounds
	out := harden.Capture(func() { c.StoreAt(q, 64, 1, 0) })
	if out.Violation == nil {
		t.Error("realloc'd object has no upper bound")
	}
}

func TestCheckRangeAndRawAccess(t *testing.T) {
	_, c := newPolicy(t, AllOptimizations())
	p := c.Malloc(128)
	c.CheckRange(p, 128, harden.Write) // hoisted check
	for off := int64(0); off < 128; off += 8 {
		c.StoreRawAt(p, off, 8, uint64(off))
	}
	out := harden.Capture(func() { c.CheckRange(p, 129, harden.Write) })
	if out.Violation == nil {
		t.Error("over-long range check passed")
	}
}

func TestOptimizationFlagsChangeCost(t *testing.T) {
	run := func(opts Options) uint64 {
		_, c := newPolicy(t, opts)
		p := c.Malloc(4096)
		if harden.Hoistable(c.P) {
			c.CheckRange(p, 4096, harden.Write)
			for off := int64(0); off < 4096; off += 8 {
				c.StoreRawAt(p, off, 8, 1)
			}
		} else {
			for off := int64(0); off < 4096; off += 8 {
				c.StoreAt(p, off, 8, 1)
			}
		}
		return c.T.C.Cycles
	}
	noOpt := run(Options{})
	opt := run(AllOptimizations())
	if opt >= noOpt {
		t.Errorf("optimised loop (%d cycles) not faster than unoptimised (%d)", opt, noOpt)
	}
}

func TestSafeElisionAblation(t *testing.T) {
	cost := func(elide bool) uint64 {
		_, c := newPolicy(t, Options{SafeElision: elide})
		p := c.Malloc(64)
		for i := 0; i < 100; i++ {
			c.StoreSafeAt(p, 8, 8, 42)
		}
		return c.T.C.Cycles
	}
	if cost(true) >= cost(false) {
		t.Error("safe-access elision did not reduce cost")
	}
}

func TestHooksFire(t *testing.T) {
	var created, accessed, deleted int
	opts := Options{
		Hooks: Hooks{
			OnCreate: func(_ *machine.Thread, _, _ uint32, _ harden.ObjKind) { created++ },
			OnAccess: func(_ *machine.Thread, _, _, _ uint32, _ harden.AccessKind) { accessed++ },
			OnDelete: func(_ *machine.Thread, _ uint32) { deleted++ },
		},
	}
	_, c := newPolicy(t, opts)
	p := c.Malloc(32)
	c.StoreAt(p, 0, 8, 1)
	_ = c.LoadAt(p, 0, 8)
	c.Free(p)
	if created != 1 || accessed != 2 || deleted != 1 {
		t.Errorf("hook counts create=%d access=%d delete=%d", created, accessed, deleted)
	}
}

func TestExtraMetadataWords(t *testing.T) {
	// §4.3: extend the metadata area with a magic word and use it to detect
	// double frees probabilistically — the paper's own example.
	const magic = 0xC0FFEE
	var detected bool
	var opts Options
	opts.ExtraMetaWords = 1
	opts.Hooks = Hooks{
		OnCreate: func(t *machine.Thread, base, size uint32, _ harden.ObjKind) {
			t.Store(base+size+LBSize, 4, magic)
		},
		OnDelete: func(t *machine.Thread, meta uint32) {
			if uint32(t.Load(meta+LBSize, 4)) != magic {
				detected = true
			}
			t.Store(meta+LBSize, 4, 0) // consume the magic
		},
	}
	_, c := newPolicy(t, opts)
	p := c.Malloc(32)
	c.Free(p)
	if detected {
		t.Fatal("false positive on first free")
	}
	c.Free(p)
	if !detected {
		t.Error("double free not detected via metadata hook")
	}
}

func TestNullPointerDetected(t *testing.T) {
	_, c := newPolicy(t, Options{})
	out := harden.Capture(func() { c.Load(0, 8) })
	if out.Violation == nil {
		t.Error("null dereference not detected")
	}
}

// TestAtomicAccessesAreChecked: §3.2 instruments "loads, stores, and atomic
// operations" — an out-of-bounds atomic RMW must be caught like any store.
func TestAtomicAccessesAreChecked(t *testing.T) {
	_, c := newPolicy(t, AllOptimizations())
	p := c.Malloc(16)
	if got := c.AtomicAddAt(p, 8, 5); got != 5 {
		t.Errorf("in-bounds atomic add = %d", got)
	}
	out := harden.Capture(func() { c.AtomicAddAt(p, 16, 1) })
	if out.Violation == nil {
		t.Error("out-of-bounds atomic RMW not detected")
	}
}

// TestTaggedPointerAtomicSpillNeverTears: the §4.1 claim — tagged-pointer
// spills by several simulated threads to one slot always reload as a
// pointer whose address and bounds belong to the same object, because both
// live in the one 64-bit word. Parallel runs its workers in turn, so this
// checks that every reload is consistent; it does not exercise a live race.
// (Contrast mpx.TestMultithreadTornBounds, where MPX's
// disjoint bounds tear.)
func TestTaggedPointerAtomicSpillNeverTears(t *testing.T) {
	pl, c := newPolicy(t, AllOptimizations())
	env := pl.Env()
	slot := c.Malloc(8)
	objA := c.Malloc(32)
	objB := c.Malloc(64)
	c.AtomicStorePtrAt(slot, 0, objA)
	main := c.T
	env.M.Parallel(main, 4, func(w *machine.Thread, i int) {
		wc := c.Fork(w)
		for j := 0; j < 500; j++ {
			if i%2 == 0 {
				q := objA
				if j%2 == 0 {
					q = objB
				}
				wc.AtomicStorePtrAt(slot, 0, q)
			} else {
				got := wc.LoadPtrAt(slot, 0)
				okA := got == objA
				okB := got == objB
				if !okA && !okB {
					panic("torn tagged pointer observed")
				}
			}
		}
	})
}

// TestBoundlessConcurrentOverflows: tolerated overflows from several
// simulated threads stay consistent in the shared overlay (each thread
// reads back its own distinct overlay chunk).
func TestBoundlessConcurrentOverflows(t *testing.T) {
	pl, c := newPolicy(t, Options{Boundless: true})
	env := pl.Env()
	buf := c.Malloc(16)
	env.M.Parallel(c.T, 4, func(w *machine.Thread, i int) {
		wc := c.Fork(w)
		base := int64(4096 + i*8192) // distinct overlay chunks per worker
		for j := int64(0); j < 50; j++ {
			wc.StoreAt(buf, base+j*8, 8, uint64(i)<<32|uint64(j))
		}
		for j := int64(0); j < 50; j++ {
			if got := wc.LoadAt(buf, base+j*8, 8); got != uint64(i)<<32|uint64(j) {
				panic("overlay readback mismatch")
			}
		}
	})
}
