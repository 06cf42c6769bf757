package mpx

import (
	"testing"

	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

func newCtx(t *testing.T) (*Policy, *harden.Ctx) {
	t.Helper()
	env := harden.NewEnv(machine.DefaultConfig())
	pl := New(env)
	return pl, harden.NewCtx(pl, env.M.NewThread())
}

func TestRegisterBoundsChecks(t *testing.T) {
	_, c := newCtx(t)
	p := c.Malloc(64)
	c.StoreAt(p, 56, 8, 42)
	if got := c.LoadAt(p, 56, 8); got != 42 {
		t.Errorf("load = %d", got)
	}
	out := harden.Capture(func() { c.StoreAt(p, 64, 1, 0) })
	if out.Violation == nil {
		t.Error("direct overflow not detected")
	}
	out = harden.Capture(func() { c.LoadAt(p, -1, 1) })
	if out.Violation == nil {
		t.Error("underflow not detected")
	}
}

func TestChecksCostNoMemoryTraffic(t *testing.T) {
	// bndcl/bndcu work on register bounds: a checked access must issue
	// exactly one memory access (the data itself) — why matrixmul under
	// MPX performs on par with SGXBounds (§6.3).
	_, c := newCtx(t)
	p := c.Malloc(64)
	c.StoreAt(p, 0, 8, 1) // warm the line
	before := c.T.C.Loads
	_ = c.LoadAt(p, 0, 8)
	if delta := c.T.C.Loads - before; delta != 1 {
		t.Errorf("checked load issued %d loads, want 1", delta)
	}
}

func TestPointerSpillAllocatesBoundsTable(t *testing.T) {
	pl, c := newCtx(t)
	if pl.BoundsTables() != 0 {
		t.Fatalf("fresh policy has %d BTs", pl.BoundsTables())
	}
	slot := c.Malloc(8)
	obj := c.Malloc(32)
	c.StorePtrAt(slot, 0, obj)
	if pl.BoundsTables() != 1 {
		t.Errorf("after one spill, BTs = %d, want 1", pl.BoundsTables())
	}
	// A spill in the same 1 MB region reuses the table.
	slot2 := c.Malloc(8)
	c.StorePtrAt(slot2, 0, obj)
	if pl.BoundsTables() != 1 {
		t.Errorf("same-region spill allocated another BT: %d", pl.BoundsTables())
	}
}

func TestBoundsSurviveSpillAndFill(t *testing.T) {
	_, c := newCtx(t)
	slot := c.Malloc(8)
	obj := c.Malloc(32)
	c.StorePtrAt(slot, 0, obj)
	got := c.LoadPtrAt(slot, 0)
	if got.Addr() != obj.Addr() {
		t.Fatalf("pointer value lost: %#x", got.Addr())
	}
	out := harden.Capture(func() { c.StoreAt(got, 32, 1, 0) })
	if out.Violation == nil {
		t.Error("bounds lost through bndstx/bndldx round trip")
	}
}

func TestUninstrumentedStoreYieldsInitBounds(t *testing.T) {
	// A pointer written with a plain 8-byte store (no bndstx) — e.g. by
	// uninstrumented code — fills with INIT bounds: permissive, unchecked.
	_, c := newCtx(t)
	slot := c.Malloc(8)
	obj := c.Malloc(32)
	c.StoreAt(slot, 0, 8, uint64(obj.Addr())) // raw store, no bounds spill
	got := c.LoadPtrAt(slot, 0)
	out := harden.Capture(func() { c.StoreAt(got, 1000, 1, 0) })
	if out.Violation != nil {
		t.Error("INIT-bounds pointer was checked; MPX would be permissive")
	}
}

func TestBTEntryPointerMismatchIsPermissive(t *testing.T) {
	// Overwrite the pointer after its bounds were spilled: bndldx sees the
	// mismatch and returns INIT bounds (false negative by design).
	_, c := newCtx(t)
	slot := c.Malloc(8)
	obj1 := c.Malloc(32)
	obj2 := c.Malloc(32)
	c.StorePtrAt(slot, 0, obj1)
	c.StoreAt(slot, 0, 8, uint64(obj2.Addr())) // raw overwrite, stale BT entry
	got := c.LoadPtrAt(slot, 0)
	if got.Addr() != obj2.Addr() {
		t.Fatal("wrong pointer value")
	}
	out := harden.Capture(func() { c.StoreAt(got, 999, 1, 0) })
	if out.Violation != nil {
		t.Error("stale BT entry applied to a different pointer")
	}
}

// TestMultithreadTornBounds demonstrates the §4.1 failure mode: a pointer
// spill is a plain 8-byte store plus a separate bndstx, so a thread that
// fills the pointer between the two gets the new value with permissive INIT
// bounds — an undetected attack window. The test runs that interleaving
// deterministically on two simulated threads of one machine, a writer W and
// a reader R. (SGXBounds keeps pointer and bounds in one 64-bit tagged word,
// which cannot tear; see core.TestTaggedPointerAtomicSpillNeverTears.)
func TestMultithreadTornBounds(t *testing.T) {
	pl, c := newCtx(t)
	slot := c.Malloc(8)
	objA := c.Malloc(32)
	objB := c.Malloc(64)
	c.StorePtrAt(slot, 0, objA)
	w := harden.NewCtx(pl, pl.Env().M.NewThread())
	r := harden.NewCtx(pl, pl.Env().M.NewThread())

	// W spills objB: its plain 8-byte store lands, and R fills the pointer
	// before W's bndstx, against the entry that still records objA.
	w.StoreAt(slot, 0, 8, uint64(objB.Addr()))
	got := r.LoadPtrAt(slot, 0)
	if got.Addr() != objB.Addr() || idOf(got) != 0 {
		t.Fatalf("torn fill = %#x with bounds id %d, want objB %#x with INIT bounds",
			got.Addr(), idOf(got), objB.Addr())
	}
	if out := harden.Capture(func() { r.StoreAt(got, 64, 1, 0) }); out.Violation != nil {
		t.Errorf("out-of-bounds store through the torn fill was detected (%v); MPX misses it", out.Violation)
	}

	// W finishes the spill, bndstx included: R's next fill carries objB's
	// bounds and catches the same store.
	w.StorePtrAt(slot, 0, objB)
	got = r.LoadPtrAt(slot, 0)
	if out := harden.Capture(func() { r.StoreAt(got, 64, 1, 0) }); out.Violation == nil {
		t.Error("out-of-bounds store through the completed spill was not detected")
	}
}

func TestBTAllocationCanExhaustEnclave(t *testing.T) {
	// Spilling pointers across many 1 MB regions allocates a 4 MB BT per
	// region until the enclave budget is exhausted — the Figure 1 / dedup /
	// mcf crash mode.
	cfg := machine.DefaultConfig()
	cfg.MemoryBudget = 64 << 20
	env := harden.NewEnv(cfg)
	pl := New(env)
	c := harden.NewCtx(pl, env.M.NewThread())
	obj := c.Malloc(32)
	out := harden.Capture(func() {
		for i := 0; i < 256; i++ {
			// One large object per iteration lands in a fresh mmap region;
			// spilling a pointer into it forces a fresh BT.
			buf := c.Malloc(1 << 20)
			c.StorePtrAt(buf, 0, obj)
		}
	})
	if !out.OOM {
		t.Errorf("BT flood did not exhaust the enclave: %v (BTs=%d)", out, pl.BoundsTables())
	}
}

func TestStringFunctionsUnchecked(t *testing.T) {
	pl, _ := newCtx(t)
	if harden.StringsChecked(pl) {
		t.Error("MPX model must report inactive string interceptors")
	}
}

func TestDirectoryIsReserved(t *testing.T) {
	env := harden.NewEnv(machine.DefaultConfig())
	before := env.M.AS.Reserved()
	New(env)
	if env.M.AS.Reserved()-before < BDEntries*BDEntrySize {
		t.Error("bounds directory not reserved")
	}
}
