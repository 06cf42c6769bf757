package core

import (
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

// Options configures a SGXBounds policy instance.
type Options struct {
	// Boundless enables failure-oblivious tolerance of out-of-bounds
	// accesses via boundless memory blocks (§4.2) instead of the default
	// fail-stop crash.
	Boundless bool
	// SafeElision enables the "safe memory accesses" optimisation (§4.4):
	// accesses and pointer arithmetic the compiler proved safe are not
	// instrumented.
	SafeElision bool
	// Hoisting enables the "hoisting checks out of loops" optimisation
	// (§4.4): one range check before the loop instead of per-iteration
	// checks.
	Hoisting bool
	// ExtraMetaWords reserves this many additional 4-byte metadata items
	// after the mandatory lower bound of every object (§4.3).
	ExtraMetaWords int
	// Hooks are the metadata management callbacks of Table 2.
	Hooks Hooks
	// BoundlessCapBytes caps the boundless overlay LRU cache; zero selects
	// DefaultBoundlessCap (1 MiB, as in §4.2).
	BoundlessCapBytes uint32
}

// AllOptimizations returns Options with both §4.4 optimisations enabled —
// the configuration used for the headline numbers of the paper.
func AllOptimizations() Options {
	return Options{SafeElision: true, Hoisting: true}
}

// Policy is the SGXBounds instrumentation. Its Ptr representation is the
// tagged pointer of Figure 5: address low, upper bound high; the lower
// bound lives in the 4 bytes after the object.
type Policy struct {
	env  *harden.Env
	opts Options
	bl   *Boundless // nil unless Options.Boundless

	// fields is the extended metadata space for narrowed bounds (§8):
	// field upper bound -> field lower bound, nil until the first Narrow.
	fields map[uint32]uint32
}

// New builds a SGXBounds policy over env.
func New(env *harden.Env, opts Options) *Policy {
	p := &Policy{env: env, opts: opts}
	if opts.Boundless {
		cap := opts.BoundlessCapBytes
		if cap == 0 {
			cap = DefaultBoundlessCap
		}
		p.bl = NewBoundless(env.M, cap)
	}
	return p
}

// Name returns "sgxbounds".
func (pl *Policy) Name() string { return "sgxbounds" }

// Env returns the bound environment.
func (pl *Policy) Env() *harden.Env { return pl.env }

// Boundless returns the overlay store, or nil in fail-stop mode.
func (pl *Policy) Boundless() *Boundless { return pl.bl }

// HoistEnabled reports whether loop checks are hoisted (§4.4).
func (pl *Policy) HoistEnabled() bool { return pl.opts.Hoisting }

// SafeElisionEnabled reports whether proven-safe checks are elided (§4.4).
func (pl *Policy) SafeElisionEnabled() bool { return pl.opts.SafeElision }

// metaBytes is the per-object metadata size: LB plus extra words.
func (pl *Policy) metaBytes() uint32 {
	return LBSize + 4*uint32(pl.opts.ExtraMetaWords)
}

// specifyBounds writes the lower bound at ub and returns the tagged
// pointer — the specify_bounds auxiliary function of §3.2.
func (pl *Policy) specifyBounds(t *machine.Thread, base, ub uint32) harden.Ptr {
	t.Instr(3)
	t.Store(ub, 4, uint64(base))
	return Tag(base, ub)
}

// create allocates bookkeeping common to all object kinds.
func (pl *Policy) create(t *machine.Thread, base, size uint32, kind harden.ObjKind) harden.Ptr {
	p := pl.specifyBounds(t, base, base+size)
	if h := pl.opts.Hooks.OnCreate; h != nil {
		h(t, base, size, kind)
	}
	return p
}

// Malloc allocates size payload bytes plus the metadata area, initialises
// the lower bound, and returns a tagged pointer (§3.2 "Pointer creation").
func (pl *Policy) Malloc(t *machine.Thread, size uint32) harden.Ptr {
	base := harden.MustAlloc(pl.env.Heap.Alloc(t, size+pl.metaBytes()))
	return pl.create(t, base, size, harden.ObjHeap)
}

// Calloc allocates zeroed memory.
func (pl *Policy) Calloc(t *machine.Thread, num, size uint32) harden.Ptr {
	total := num * size
	p := pl.Malloc(t, total)
	pl.Memset(t, p, 0, total)
	return p
}

// Realloc resizes an allocation.
func (pl *Policy) Realloc(t *machine.Thread, p harden.Ptr, size uint32) harden.Ptr {
	if p == 0 {
		return pl.Malloc(t, size)
	}
	oldBase := ExtractP(p)
	oldSize := ExtractUB(p) - oldBase
	q := pl.Malloc(t, size)
	cp := oldSize
	if size < cp {
		cp = size
	}
	pl.Memcpy(t, q, p, cp)
	pl.Free(t, p)
	return q
}

// Free releases a heap object. The metadata is removed together with the
// object itself, so no uninstrumentation is needed (§3.2); the OnDelete
// hook fires first.
func (pl *Policy) Free(t *machine.Thread, p harden.Ptr) {
	if h := pl.opts.Hooks.OnDelete; h != nil {
		h(t, ExtractUB(p))
	}
	_ = pl.env.Heap.Free(t, ExtractP(p))
}

// Global allocates a global object: the variable is padded with the
// metadata area and its bounds are set at program initialisation (§3.2).
func (pl *Policy) Global(t *machine.Thread, size uint32) harden.Ptr {
	base := harden.MustAlloc(pl.env.M.GlobalAlloc(size + pl.metaBytes()))
	return pl.create(t, base, size, harden.ObjGlobal)
}

// StackAlloc allocates a padded stack object in the current frame.
func (pl *Policy) StackAlloc(t *machine.Thread, size uint32) harden.Ptr {
	base := t.StackAlloc(size + pl.metaBytes())
	return pl.create(t, base, size, harden.ObjStack)
}

// StackFree retires a stack object; metadata vanishes with the frame.
func (pl *Policy) StackFree(t *machine.Thread, p harden.Ptr, size uint32) {}

// check performs the run-time bounds check of §3.2: extract the pointer and
// the upper bound from the tag, read the lower bound stored at the upper
// bound's address, and compare. It reports the concrete address and whether
// the access may proceed in place (false means boundless mode absorbed an
// out-of-bounds access).
func (pl *Policy) check(t *machine.Thread, p harden.Ptr, size uint32, kind harden.AccessKind) (uint32, bool) {
	addr := ExtractP(p)
	ub := ExtractUB(p)
	t.Instr(5) // extract_p, extract_ub, two comparisons, branch
	t.C.Checks++
	var lb uint32
	if ub != 0 {
		if flb, ok := pl.narrowedLB(t, ub); ok {
			lb = flb // narrowed field bounds from the extended metadata space
		} else {
			lb = uint32(t.Load(ub, 4)) // extract_LB: one load, adjacent to the object
		}
	}
	if h := pl.opts.Hooks.OnAccess; h != nil {
		h(t, addr, size, ub, kind)
	}
	if !BoundsViolated(addr, size, lb, ub) {
		return addr, true
	}
	if pl.bl != nil {
		t.C.Violations++
		return addr, false
	}
	panic(&harden.Violation{
		Policy: pl.Name(), Kind: kind, Addr: addr, Size: size, LB: lb, UB: ub,
	})
}

// Load is a checked scalar load; out-of-bounds loads in boundless mode are
// served from the overlay store (or as zeros, §4.2).
func (pl *Policy) Load(t *machine.Thread, p harden.Ptr, size uint8) uint64 {
	addr, ok := pl.check(t, p, uint32(size), harden.Read)
	if !ok {
		return pl.bl.Load(t, addr, size)
	}
	t.Instr(1)
	return t.Load(addr, size)
}

// Store is a checked scalar store; out-of-bounds stores in boundless mode
// are redirected to the overlay store to protect adjacent objects.
func (pl *Policy) Store(t *machine.Thread, p harden.Ptr, size uint8, v uint64) {
	addr, ok := pl.check(t, p, uint32(size), harden.Write)
	if !ok {
		pl.bl.Store(t, addr, size, v)
		return
	}
	t.Instr(1)
	t.Store(addr, size, v)
}

// LoadPtr loads a stored pointer. The loaded 64-bit word is a tagged
// pointer, so the bounds travel with it — no extra metadata operation, in
// contrast to MPX's bnd_load (Figure 4c).
func (pl *Policy) LoadPtr(t *machine.Thread, p harden.Ptr) harden.Ptr {
	return harden.Ptr(pl.Load(t, p, 8))
}

// StorePtr spills a pointer. Pointer and bounds are one 64-bit word, so the
// update is inherently atomic — the §4.1 multithreading argument.
func (pl *Policy) StorePtr(t *machine.Thread, p harden.Ptr, q harden.Ptr) {
	pl.Store(t, p, 8, uint64(q))
}

// Add is instrumented pointer arithmetic, confined to the low 32 bits so
// integer overflow cannot forge the upper-bound tag (§3.2).
func (pl *Policy) Add(t *machine.Thread, p harden.Ptr, delta int64) harden.Ptr {
	t.Instr(3) // extract_ub, 32-bit add, merge
	return Confine(p, delta)
}

// AddSafe is pointer arithmetic the compiler proved non-overflowing. With
// the safe-access optimisation it costs one plain add; without it, it is
// instrumented like Add.
func (pl *Policy) AddSafe(t *machine.Thread, p harden.Ptr, delta int64) harden.Ptr {
	if !pl.opts.SafeElision {
		return pl.Add(t, p, delta)
	}
	t.Instr(1)
	return harden.Ptr(uint64(p) + uint64(delta))
}

// CheckRange checks [p, p+n) in one operation — the primitive behind libc
// wrappers and hoisted loop checks. It is always fail-stop: bulk operations
// under boundless mode go through Memcpy/Memset, which clamp and redirect.
func (pl *Policy) CheckRange(t *machine.Thread, p harden.Ptr, n uint32, kind harden.AccessKind) {
	if n == 0 {
		return
	}
	addr, ub := ExtractP(p), ExtractUB(p)
	t.Instr(6)
	t.C.Checks++
	var lb uint32
	if ub != 0 {
		if flb, ok := pl.narrowedLB(t, ub); ok {
			lb = flb
		} else {
			lb = uint32(t.Load(ub, 4))
		}
	}
	if h := pl.opts.Hooks.OnAccess; h != nil {
		h(t, addr, n, ub, kind)
	}
	if BoundsViolated(addr, n, lb, ub) {
		panic(&harden.Violation{
			Policy: pl.Name(), Kind: kind, Addr: addr, Size: n, LB: lb, UB: ub,
			Detail: "(range check)",
		})
	}
}

// LoadRaw reads without a check (after CheckRange, or proven safe).
func (pl *Policy) LoadRaw(t *machine.Thread, p harden.Ptr, size uint8) uint64 {
	t.Instr(1)
	return t.Load(ExtractP(p), size)
}

// StoreRaw writes without a check.
func (pl *Policy) StoreRaw(t *machine.Thread, p harden.Ptr, size uint8, v uint64) {
	t.Instr(1)
	t.Store(ExtractP(p), size, v)
}

// rangeSplit computes how much of [addr, addr+n) lies within [lb, ub),
// assuming addr >= lb. It returns the in-bounds byte count.
func rangeSplit(addr, n, ub uint32) uint32 {
	if addr >= ub {
		return 0
	}
	in := ub - addr
	if in > n {
		in = n
	}
	return in
}

// boundsOf extracts (addr, lb, ub) paying the standard check cost.
func (pl *Policy) boundsOf(t *machine.Thread, p harden.Ptr) (addr, lb, ub uint32) {
	addr, ub = ExtractP(p), ExtractUB(p)
	t.Instr(6)
	t.C.Checks++
	if ub != 0 {
		if flb, ok := pl.narrowedLB(t, ub); ok {
			lb = flb
		} else {
			lb = uint32(t.Load(ub, 4))
		}
	}
	return
}

// narrowedLB consults the field-bounds table when narrowing is in use.
// While no pointer has ever been narrowed (a nil table), this is a single
// predicted branch, leaving the §3.2 fast path untouched.
func (pl *Policy) narrowedLB(t *machine.Thread, ub uint32) (uint32, bool) {
	if pl.fields == nil {
		return 0, false
	}
	return pl.fieldLB(t, ub)
}

// Memset fills n bytes. In boundless mode the out-of-bounds tail is
// redirected to the overlay store.
func (pl *Policy) Memset(t *machine.Thread, p harden.Ptr, b byte, n uint32) {
	if n == 0 {
		return
	}
	addr, lb, ub := pl.boundsOf(t, p)
	if !BoundsViolated(addr, n, lb, ub) {
		t.Touch(addr, n, true)
		pl.env.M.AS.Memset(addr, b, n)
		return
	}
	if pl.bl == nil || addr < lb {
		panic(&harden.Violation{Policy: pl.Name(), Kind: harden.Write, Addr: addr, Size: n, LB: lb, UB: ub, Detail: "(memset)"})
	}
	t.C.Violations++
	in := rangeSplit(addr, n, ub)
	if in > 0 {
		t.Touch(addr, in, true)
		pl.env.M.AS.Memset(addr, b, in)
	}
	pl.bl.SetBytes(t, addr+in, b, n-in)
}

// Memcpy copies n bytes. In boundless mode, out-of-bounds source bytes read
// as overlay contents (zeros if never written) and out-of-bounds
// destination bytes are redirected to the overlay — this is exactly the
// mechanism that turns the Heartbleed over-read into a harmless stream of
// zeros in §7.
func (pl *Policy) Memcpy(t *machine.Thread, dst, src harden.Ptr, n uint32) {
	if n == 0 {
		return
	}
	saddr, slb, sub := pl.boundsOf(t, src)
	daddr, dlb, dub := pl.boundsOf(t, dst)
	srcOK := !BoundsViolated(saddr, n, slb, sub)
	dstOK := !BoundsViolated(daddr, n, dlb, dub)
	if srcOK && dstOK {
		t.Touch(saddr, n, false)
		t.Touch(daddr, n, true)
		pl.env.M.AS.Memmove(daddr, saddr, n)
		return
	}
	if pl.bl == nil || saddr < slb || daddr < dlb {
		v := &harden.Violation{Policy: pl.Name(), Kind: harden.Write, Addr: daddr, Size: n, LB: dlb, UB: dub, Detail: "(memcpy dst)"}
		if !srcOK {
			v = &harden.Violation{Policy: pl.Name(), Kind: harden.Read, Addr: saddr, Size: n, LB: slb, UB: sub, Detail: "(memcpy src)"}
		}
		panic(v)
	}
	t.C.Violations++
	// Slow path: assemble the source bytes (overlay-backed where
	// out-of-bounds), then scatter to the destination the same way.
	buf := make([]byte, n)
	sin := rangeSplit(saddr, n, sub)
	if sin > 0 {
		t.Touch(saddr, sin, false)
		pl.env.M.AS.ReadBytes(saddr, buf[:sin])
	}
	pl.bl.ReadBytes(t, saddr+sin, buf[sin:])
	din := rangeSplit(daddr, n, dub)
	if din > 0 {
		t.Touch(daddr, din, true)
		pl.env.M.AS.WriteBytes(daddr, buf[:din])
	}
	pl.bl.WriteBytes(t, daddr+din, buf[din:])
}

var _ harden.Policy = (*Policy)(nil)
var _ harden.BulkPolicy = (*Policy)(nil)
var _ harden.HoistQuery = (*Policy)(nil)
var _ harden.SafeQuery = (*Policy)(nil)
