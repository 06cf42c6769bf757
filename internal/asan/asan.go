// Package asan models AddressSanitizer (§2.2) as a hardening policy: shadow
// memory covering one-eighth of the address space, poisoned redzones around
// every object, and a quarantine that delays the reuse of freed memory.
//
// The model keeps ASan's two defining cost characteristics:
//
//   - every access adds a shadow-memory access whose address is a function
//     of the data address (shadow = base + addr>>3), so shadow traffic adds
//     cache and EPC footprint proportional to the program's own — the
//     mechanism behind ASan's EPC thrashing in Figures 1, 8 and 11; and
//   - redzones and quarantine inflate and fragment the heap — the mechanism
//     behind the swaptions memory blow-up in Figure 7.
//
// Like the paper's port to SGX (§5.2), the model uses the 32-bit shadow
// layout: the shadow region is a fixed fraction of the enclave space (the
// paper's 512 MB for a 4 GB space; scaled here to budget/8) and is reserved
// in full at start-up.
package asan

import (
	"sgxbounds/internal/alloc"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

// RedzoneSize is the redzone placed before and after every object. ASan's
// default minimum is 16 bytes; 32 keeps objects line-separated.
const RedzoneSize = 32

// Shadow byte values.
const (
	shadowOK      = 0x00 // addressable
	shadowRZ      = 0xFA // redzone
	shadowFreed   = 0xFD // freed (quarantined) memory
	shadowGlobal  = 0xF9 // global redzone
	shadowStackRZ = 0xF2 // stack redzone
)

// Options configures the ASan model.
type Options struct {
	// QuarantineBytes caps the quarantine of freed objects. Zero selects
	// budget/16, the same fraction of the enclave ASan's default 256 MB
	// quarantine is of a 4 GB space.
	QuarantineBytes uint64
	// NoQuarantine disables the quarantine entirely.
	NoQuarantine bool
}

// Policy is the AddressSanitizer model.
type Policy struct {
	env        *harden.Env
	shadowBase uint32
	quarCap    uint64

	quar      []quarObj
	quarBytes uint64
}

type quarObj struct {
	payload uint32
	size    uint32
}

// New builds an ASan policy over env, reserving the shadow region.
func New(env *harden.Env, opts Options) *Policy {
	budget := env.M.Cfg.MemoryBudget
	// Reserve the shadow region up front, like __asan_init maps shadow at
	// startup: one eighth of the enclave budget, capped at the 32-bit
	// mode's fixed 512 MB (one eighth of the 4 GB space, §5.2). The
	// reservation is accounted against the enclave's virtual memory, which
	// is why ASan "reduces the available memory" (§6.2).
	shadow := budget / 8
	if shadow > 512<<20 {
		shadow = 512 << 20
	}
	env.M.AS.Reserve(shadow)
	quarCap := opts.QuarantineBytes
	if quarCap == 0 && !opts.NoQuarantine {
		quarCap = budget / 16
		if quarCap > 256<<20 {
			quarCap = 256 << 20 // ASan's default quarantine cap
		}
	}
	return &Policy{env: env, shadowBase: machine.MetaBase, quarCap: quarCap}
}

// Name returns "asan".
func (pl *Policy) Name() string { return "asan" }

// Env returns the bound environment.
func (pl *Policy) Env() *harden.Env { return pl.env }

// HoistEnabled reports false: the ASan pass checks every access in loops.
func (pl *Policy) HoistEnabled() bool { return false }

// shadowAddr maps a data address to its shadow byte.
func (pl *Policy) shadowAddr(addr uint32) uint32 {
	return pl.shadowBase + addr>>3
}

// poison marks [addr, addr+n) with the shadow value v, accounting the
// shadow writes at line granularity.
func (pl *Policy) poison(t *machine.Thread, addr, n uint32, v byte) {
	if n == 0 {
		return
	}
	lo := pl.shadowAddr(addr)
	hi := pl.shadowAddr(addr + n - 1)
	t.Touch(lo, hi-lo+1, true)
	pl.env.M.AS.Memset(lo, v, hi-lo+1)
}

// checkShadow verifies that [addr, addr+size) is addressable. It performs
// the shadow load and comparison of Figure 4b and raises a violation if the
// shadow is poisoned.
func (pl *Policy) checkShadow(t *machine.Thread, addr, size uint32, kind harden.AccessKind) {
	t.Instr(3) // compute shadow address, compare, branch
	t.C.Checks++
	s := byte(t.Load(pl.shadowAddr(addr), 1))
	if s == shadowOK {
		if size > 8 || pl.shadowAddr(addr) != pl.shadowAddr(addr+size-1) {
			s = byte(t.Load(pl.shadowAddr(addr+size-1), 1))
		}
	}
	if s != shadowOK {
		panic(&harden.Violation{
			Policy: pl.Name(), Kind: kind, Addr: addr, Size: size,
			Detail: detailFor(s),
		})
	}
}

func detailFor(s byte) string {
	switch s {
	case shadowRZ:
		return "(heap redzone)"
	case shadowFreed:
		return "(use after free)"
	case shadowGlobal:
		return "(global redzone)"
	case shadowStackRZ:
		return "(stack redzone)"
	}
	return ""
}

// granule rounds a size up to the 8-byte shadow granule, as ASan rounds
// object sizes so that redzones start on a granule boundary. (Real ASan
// additionally encodes partially addressable granules with shadow values
// 1–7; this model leaves the tail granule addressable, trading detection of
// the last size%8 bytes for a simpler shadow encoding.)
func granule(size uint32) uint32 { return (size + 7) &^ 7 }

// Malloc allocates size bytes framed by poisoned redzones.
func (pl *Policy) Malloc(t *machine.Thread, size uint32) harden.Ptr {
	g := granule(size)
	base := harden.MustAlloc(pl.env.Heap.Alloc(t, g+2*RedzoneSize))
	payload := base + RedzoneSize
	t.Instr(10) // interceptor bookkeeping
	pl.poison(t, base, RedzoneSize, shadowRZ)
	pl.poison(t, payload, g, shadowOK)
	pl.poison(t, payload+g, RedzoneSize, shadowRZ)
	return harden.Ptr(payload)
}

// Calloc allocates zeroed memory.
func (pl *Policy) Calloc(t *machine.Thread, num, size uint32) harden.Ptr {
	total := num * size
	p := pl.Malloc(t, total)
	pl.memsetRaw(t, p.Addr(), 0, total)
	return p
}

// Realloc resizes an allocation.
func (pl *Policy) Realloc(t *machine.Thread, p harden.Ptr, size uint32) harden.Ptr {
	if p == 0 {
		return pl.Malloc(t, size)
	}
	old := pl.env.Heap.SizeOf(t, p.Addr()-RedzoneSize) - 2*RedzoneSize // granule-rounded
	q := pl.Malloc(t, size)
	cp := old
	if size < cp {
		cp = size
	}
	t.Touch(p.Addr(), cp, false)
	t.Touch(q.Addr(), cp, true)
	pl.env.M.AS.Memmove(q.Addr(), p.Addr(), cp)
	pl.Free(t, p)
	return q
}

// Free poisons the object and moves it to the quarantine, which delays
// reuse to catch use-after-free; the oldest entries are really freed when
// the quarantine exceeds its cap. Double frees are detected via the
// allocator tag.
func (pl *Policy) Free(t *machine.Thread, p harden.Ptr) {
	base := p.Addr() - RedzoneSize
	size := pl.env.Heap.SizeOf(t, base) - 2*RedzoneSize // granule-rounded
	tag := pl.env.Heap.Tag(t, base)
	if tag != alloc.TagLive {
		panic(&harden.Violation{
			Policy: pl.Name(), Kind: harden.Write, Addr: p.Addr(), Size: 0,
			Detail: "(double free)",
		})
	}
	t.Instr(10)
	pl.poison(t, p.Addr(), size, shadowFreed)
	if pl.quarCap == 0 {
		_ = pl.env.Heap.Free(t, base)
		return
	}
	pl.env.Heap.SetTag(t, base, alloc.TagQuarantine)
	pl.quar = append(pl.quar, quarObj{payload: base, size: size})
	pl.quarBytes += uint64(size + 2*RedzoneSize)
	for pl.quarBytes > pl.quarCap && len(pl.quar) > 0 {
		o := pl.quar[0]
		pl.quar = pl.quar[1:]
		pl.quarBytes -= uint64(o.size + 2*RedzoneSize)
		_ = pl.env.Heap.Free(t, o.payload)
	}
}

// Global allocates a global object with redzones.
func (pl *Policy) Global(t *machine.Thread, size uint32) harden.Ptr {
	g := granule(size)
	base := harden.MustAlloc(pl.env.M.GlobalAlloc(g + 2*RedzoneSize))
	payload := base + RedzoneSize
	pl.poison(t, base, RedzoneSize, shadowGlobal)
	pl.poison(t, payload, g, shadowOK)
	pl.poison(t, payload+g, RedzoneSize, shadowGlobal)
	return harden.Ptr(payload)
}

// StackAlloc allocates a stack object with redzones.
func (pl *Policy) StackAlloc(t *machine.Thread, size uint32) harden.Ptr {
	g := granule(size)
	base := t.StackAlloc(g + 2*RedzoneSize)
	payload := base + RedzoneSize
	pl.poison(t, base, RedzoneSize, shadowStackRZ)
	pl.poison(t, payload, g, shadowOK)
	pl.poison(t, payload+g, RedzoneSize, shadowStackRZ)
	return harden.Ptr(payload)
}

// StackFree unpoisons the object's frame slice when the frame pops.
func (pl *Policy) StackFree(t *machine.Thread, p harden.Ptr, size uint32) {
	pl.poison(t, p.Addr()-RedzoneSize, granule(size)+2*RedzoneSize, shadowOK)
}

// Load is a shadow-checked load.
func (pl *Policy) Load(t *machine.Thread, p harden.Ptr, size uint8) uint64 {
	pl.checkShadow(t, p.Addr(), uint32(size), harden.Read)
	t.Instr(1)
	return t.Load(p.Addr(), size)
}

// Store is a shadow-checked store.
func (pl *Policy) Store(t *machine.Thread, p harden.Ptr, size uint8, v uint64) {
	pl.checkShadow(t, p.Addr(), uint32(size), harden.Write)
	t.Instr(1)
	t.Store(p.Addr(), size, v)
}

// LoadPtr loads a stored pointer: a plain checked 8-byte load (ASan keeps
// no per-pointer metadata).
func (pl *Policy) LoadPtr(t *machine.Thread, p harden.Ptr) harden.Ptr {
	return harden.Ptr(pl.Load(t, p, 8))
}

// StorePtr spills a pointer: a plain checked 8-byte store.
func (pl *Policy) StorePtr(t *machine.Thread, p harden.Ptr, q harden.Ptr) {
	pl.Store(t, p, 8, uint64(q))
}

// Add is uninstrumented pointer arithmetic: ASan checks accesses, not
// pointer creation.
func (pl *Policy) Add(t *machine.Thread, p harden.Ptr, delta int64) harden.Ptr {
	t.Instr(1)
	return harden.Ptr(uint64(int64(uint64(p)) + delta))
}

// AddSafe is identical to Add.
func (pl *Policy) AddSafe(t *machine.Thread, p harden.Ptr, delta int64) harden.Ptr {
	return pl.Add(t, p, delta)
}

// CheckRange walks the shadow of [p, p+n) — the interceptor check ASan
// performs in its libc wrappers.
func (pl *Policy) CheckRange(t *machine.Thread, p harden.Ptr, n uint32, kind harden.AccessKind) {
	if n == 0 {
		return
	}
	t.Instr(5)
	t.C.Checks++
	addr := p.Addr()
	lo, hi := pl.shadowAddr(addr), pl.shadowAddr(addr+n-1)
	t.Touch(lo, hi-lo+1, false)
	// Scan the shadow bytes for poison.
	buf := make([]byte, hi-lo+1)
	pl.env.M.AS.ReadBytes(lo, buf)
	for i, s := range buf {
		if s != shadowOK {
			panic(&harden.Violation{
				Policy: pl.Name(), Kind: kind,
				Addr: addr + uint32(i)*8, Size: n,
				Detail: detailFor(s) + " (range check)",
			})
		}
	}
}

// LoadRaw reads without a shadow check.
func (pl *Policy) LoadRaw(t *machine.Thread, p harden.Ptr, size uint8) uint64 {
	t.Instr(1)
	return t.Load(p.Addr(), size)
}

// StoreRaw writes without a shadow check.
func (pl *Policy) StoreRaw(t *machine.Thread, p harden.Ptr, size uint8, v uint64) {
	t.Instr(1)
	t.Store(p.Addr(), size, v)
}

// memsetRaw fills payload bytes without checks (fresh allocations).
func (pl *Policy) memsetRaw(t *machine.Thread, addr uint32, b byte, n uint32) {
	t.Touch(addr, n, true)
	pl.env.M.AS.Memset(addr, b, n)
}

// QuarantineBytes returns the current quarantine occupancy.
func (pl *Policy) QuarantineBytes() uint64 {
	return pl.quarBytes
}

var _ harden.Policy = (*Policy)(nil)
var _ harden.HoistQuery = (*Policy)(nil)
