// Package mpx models Intel Memory Protection Extensions as adapted for SGX
// enclaves in §5.2 of the paper.
//
// MPX keeps *disjoint* bounds metadata: bounds live in bounds registers
// while a pointer is in flight, and are spilled to / filled from in-memory
// Bounds Tables whenever the pointer itself is stored to or loaded from
// memory (bndstx / bndldx, Figure 4c lines 11 and 15). The address
// translation is two-level, like a page table: a Bounds Directory (32 KB in
// the paper's 32-bit adaptation) indexed by the high bits of the *pointer's
// storage location*, pointing to 4 MB Bounds Tables allocated on demand —
// in the enclave port, allocated by the runtime inside the enclave, since
// the kernel cannot examine enclave memory.
//
// The model reproduces MPX's three defining behaviours:
//
//   - checks against register-held bounds are nearly free (two instructions,
//     no memory traffic) — why matrixmul under MPX matches SGXBounds (§6.3);
//   - every pointer spill/fill costs a directory walk plus a table access,
//     and every 1 MB region that ever holds a spilled pointer costs a 4 MB
//     table that is never reclaimed — why pointer-intensive programs (pca,
//     SQLite, dedup, mcf, xalanc) slow down or crash out of memory; and
//   - a bounds-table entry is (pointer value, bounds) updated non-atomically
//     with respect to the pointer store itself, so concurrent pointer
//     updates tear: bndldx then sees a mismatching stored pointer value and
//     deliberately returns permissive bounds — the §4.1 false-negative
//     failure mode.
//
// MPX's Ptr representation is addr (low 32 bits) | bounds-register id (high
// 32 bits); id 0 means INIT — permissive, unchecked bounds.
package mpx

import (
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

const (
	// RegionShift selects the pointer-location bits that index the Bounds
	// Directory: each 1 MB region of address space has its own table.
	RegionShift = 20
	// BDEntries is the number of Bounds Directory entries (4096 for a
	// 32-bit space, making the BD 32 KB as in §5.2).
	BDEntries = 1 << (32 - RegionShift)
	// BDEntrySize is the size of one directory entry.
	BDEntrySize = 8
	// BTEntrySize is the size of one bounds-table entry: stored pointer
	// value, lower bound, upper bound, reserved.
	BTEntrySize = 16
	// BTSize is the size of one bounds table: one entry per 4-byte-aligned
	// pointer location in the region, 4 MB as in §5.2.
	BTSize = (1 << RegionShift) / 4 * BTEntrySize
)

// Policy is the Intel MPX model.
type Policy struct {
	env    *harden.Env
	bdBase uint32

	bounds [][2]uint32       // bounds-register file + spill values; id-1 indexes
	byKey  map[uint64]uint32 // packed (lb,ub) -> id, for bndldx reconstruction
	bts    map[uint32]uint32 // region -> bounds-table base
}

// New builds an MPX policy over env, mapping the Bounds Directory.
func New(env *harden.Env) *Policy {
	bd := harden.MustAlloc(env.M.MetaAlloc(BDEntries * BDEntrySize))
	return &Policy{
		env:    env,
		bdBase: bd,
		byKey:  make(map[uint64]uint32),
		bts:    make(map[uint32]uint32),
	}
}

// Name returns "mpx".
func (pl *Policy) Name() string { return "mpx" }

// Env returns the bound environment.
func (pl *Policy) Env() *harden.Env { return pl.env }

// HoistEnabled reports false: the GCC MPX pass checks accesses in place.
func (pl *Policy) HoistEnabled() bool { return false }

// StringFunctionsUnchecked reports that the MPX libc string interceptors
// are not active under static linking in the enclave (the paper's RIPE
// results: return-into-libc attacks on heap and data are missed, Table 4).
func (pl *Policy) StringFunctionsUnchecked() bool { return true }

// BoundsTables returns the number of bounds tables allocated so far
// (column 6 of Table 3).
func (pl *Policy) BoundsTables() int {
	return len(pl.bts)
}

// makeBounds registers a bounds pair and returns its id (bndmk). The empty
// pair maps to INIT bounds.
func (pl *Policy) makeBounds(lb, ub uint32) uint32 {
	if lb == 0 && ub == 0 {
		return 0
	}
	key := uint64(lb)<<32 | uint64(ub)
	if id, ok := pl.byKey[key]; ok {
		return id
	}
	pl.bounds = append(pl.bounds, [2]uint32{lb, ub})
	id := uint32(len(pl.bounds))
	pl.byKey[key] = id
	return id
}

// boundsOf resolves a bounds id; id 0 (INIT) has no bounds.
func (pl *Policy) boundsOf(id uint32) (lb, ub uint32, ok bool) {
	if id == 0 || int(id) > len(pl.bounds) {
		return 0, 0, false
	}
	b := pl.bounds[id-1]
	return b[0], b[1], true
}

func tag(addr, id uint32) harden.Ptr { return harden.Ptr(uint64(id)<<32 | uint64(addr)) }

func idOf(p harden.Ptr) uint32 { return uint32(uint64(p) >> 32) }

// newObject associates fresh bounds with a new object.
func (pl *Policy) newObject(t *machine.Thread, base, size uint32) harden.Ptr {
	t.Instr(2) // bndmk
	return tag(base, pl.makeBounds(base, base+size))
}

// Malloc allocates size bytes and creates bounds for the result.
func (pl *Policy) Malloc(t *machine.Thread, size uint32) harden.Ptr {
	base := harden.MustAlloc(pl.env.Heap.Alloc(t, size))
	return pl.newObject(t, base, size)
}

// Calloc allocates zeroed memory.
func (pl *Policy) Calloc(t *machine.Thread, num, size uint32) harden.Ptr {
	total := num * size
	p := pl.Malloc(t, total)
	t.Touch(p.Addr(), total, true)
	pl.env.M.AS.Memset(p.Addr(), 0, total)
	return p
}

// Realloc resizes an allocation.
func (pl *Policy) Realloc(t *machine.Thread, p harden.Ptr, size uint32) harden.Ptr {
	if p == 0 {
		return pl.Malloc(t, size)
	}
	old := pl.env.Heap.SizeOf(t, p.Addr())
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

// Free releases the object. MPX keeps no per-object liveness metadata, so
// double frees are silent, as with the native baseline.
func (pl *Policy) Free(t *machine.Thread, p harden.Ptr) {
	_ = pl.env.Heap.Free(t, p.Addr())
}

// Global allocates a global object with bounds.
func (pl *Policy) Global(t *machine.Thread, size uint32) harden.Ptr {
	base := harden.MustAlloc(pl.env.M.GlobalAlloc(size))
	return pl.newObject(t, base, size)
}

// StackAlloc allocates a stack object with bounds.
func (pl *Policy) StackAlloc(t *machine.Thread, size uint32) harden.Ptr {
	return pl.newObject(t, t.StackAlloc(size), size)
}

// StackFree retires a stack object (no metadata to clear).
func (pl *Policy) StackFree(t *machine.Thread, p harden.Ptr, size uint32) {}

// check performs bndcl+bndcu against register-held bounds: two
// instructions, no memory traffic — when the bounds are already in one of
// the four bounds registers. MPX has only bnd0–bnd3, so code juggling more
// than four live referents spills and reloads bounds around every check
// (bndmov), one of the instruction-count multipliers behind the paper's
// pointer-intensive MPX results (pca: 10x instructions, 25x L1 accesses).
// The register file is modelled as a per-thread 4-entry FIFO in
// Thread.Scratch.
func (pl *Policy) check(t *machine.Thread, p harden.Ptr, size uint32, kind harden.AccessKind) uint32 {
	addr := p.Addr()
	id := idOf(p)
	lb, ub, ok := pl.boundsOf(id)
	if !ok {
		return addr // INIT bounds: permissive
	}
	inReg := false
	for _, r := range t.Scratch[:4] {
		if uint32(r) == id {
			inReg = true
			break
		}
	}
	if !inReg {
		t.Instr(4) // bndmov reload from the stack spill slot
		t.Load(t.SpillBase()+id%64*16, 8)
		t.Scratch[t.Scratch[4]%4] = uint64(id)
		t.Scratch[4]++
	}
	t.Instr(4) // bndcl, bndcu plus the address moves GCC emits around them
	t.C.Checks++
	if addr < lb || addr+size > ub || addr+size < addr {
		panic(&harden.Violation{
			Policy: pl.Name(), Kind: kind, Addr: addr, Size: size, LB: lb, UB: ub,
		})
	}
	return addr
}

// Load is a bounds-register-checked load.
func (pl *Policy) Load(t *machine.Thread, p harden.Ptr, size uint8) uint64 {
	addr := pl.check(t, p, uint32(size), harden.Read)
	t.Instr(1)
	return t.Load(addr, size)
}

// Store is a bounds-register-checked store.
func (pl *Policy) Store(t *machine.Thread, p harden.Ptr, size uint8, v uint64) {
	addr := pl.check(t, p, uint32(size), harden.Write)
	t.Instr(1)
	t.Store(addr, size, v)
}

// btEntry returns the bounds-table entry address for a pointer location,
// allocating the region's table when create is set. The directory walk and
// the on-demand table allocation are charged to t; allocation can exhaust
// the enclave (panic with machine.ErrOutOfMemory).
func (pl *Policy) btEntry(t *machine.Thread, loc uint32, create bool) (uint32, bool) {
	region := loc >> RegionShift
	bdAddr := pl.bdBase + region*BDEntrySize
	btBase := uint32(t.Load(bdAddr, 4)) // directory walk: one memory access
	if btBase == 0 {
		if !create {
			return 0, false
		}
		btBase = pl.bts[region]
		if btBase == 0 {
			base, err := pl.env.M.MetaAlloc(BTSize)
			if err != nil {
				panic(err) // enclave out of memory: the MPX crash mode
			}
			btBase = base
			pl.bts[region] = base
		}
		t.Store(bdAddr, 4, uint64(btBase))
	}
	idx := (loc & (1<<RegionShift - 1)) / 4
	return btBase + idx*BTEntrySize, true
}

// LoadPtr loads a pointer and its bounds: a plain 8-byte load plus bndldx.
// If the bounds-table entry's recorded pointer value does not match the
// loaded pointer — either because the pointer was stored by uninstrumented
// code or because a concurrent update tore pointer and metadata apart —
// bndldx returns permissive INIT bounds (§4.1).
func (pl *Policy) LoadPtr(t *machine.Thread, p harden.Ptr) harden.Ptr {
	addr := pl.check(t, p, 8, harden.Read)
	t.Instr(1)
	raw := t.Load(addr, 8)
	val := uint32(raw)
	if val == 0 {
		return 0 // null pointer: no bndldx
	}
	// bndldx: address-translation arithmetic, directory walk, table entry
	// load, pointer-match compare — a long microcoded sequence.
	t.Instr(12)
	entry, ok := pl.btEntry(t, addr, false)
	if !ok {
		return tag(val, 0)
	}
	stored := uint32(t.Load(entry, 4))
	if stored != val {
		return tag(val, 0) // mismatch: INIT bounds
	}
	lb := uint32(t.Load(entry+4, 4))
	ub := uint32(t.Load(entry+8, 4))
	return tag(val, pl.makeBounds(lb, ub))
}

// StorePtr spills a pointer and its bounds: a plain 8-byte store plus
// bndstx into the bounds table (allocating the table on demand). The two
// stores are not atomic with respect to each other — deliberately, to model
// the MPX multithreading hazard.
func (pl *Policy) StorePtr(t *machine.Thread, p harden.Ptr, q harden.Ptr) {
	addr := pl.check(t, p, 8, harden.Write)
	t.Instr(1)
	t.Store(addr, 8, uint64(q.Addr()))
	// bndstx: address-translation arithmetic, directory walk, table entry
	// store — a long microcoded sequence.
	t.Instr(12)
	entry, _ := pl.btEntry(t, addr, true)
	lb, ub, _ := pl.boundsOf(idOf(q))
	t.Store(entry, 4, uint64(q.Addr()))
	t.Store(entry+4, 4, uint64(lb))
	t.Store(entry+8, 4, uint64(ub))
}

// Add is pointer arithmetic; the result keeps the same bounds register.
func (pl *Policy) Add(t *machine.Thread, p harden.Ptr, delta int64) harden.Ptr {
	t.Instr(1)
	return tag(uint32(int64(uint64(p.Addr()))+delta), idOf(p))
}

// AddSafe is identical to Add.
func (pl *Policy) AddSafe(t *machine.Thread, p harden.Ptr, delta int64) harden.Ptr {
	return pl.Add(t, p, delta)
}

// CheckRange checks [p, p+n) against register-held bounds — the check the
// GCC MPX runtime's mem* wrappers perform. With INIT bounds it passes.
func (pl *Policy) CheckRange(t *machine.Thread, p harden.Ptr, n uint32, kind harden.AccessKind) {
	if n == 0 {
		return
	}
	pl.check(t, p, n, kind)
}

// LoadRaw reads without a check.
func (pl *Policy) LoadRaw(t *machine.Thread, p harden.Ptr, size uint8) uint64 {
	t.Instr(1)
	return t.Load(p.Addr(), size)
}

// StoreRaw writes without a check.
func (pl *Policy) StoreRaw(t *machine.Thread, p harden.Ptr, size uint8, v uint64) {
	t.Instr(1)
	t.Store(p.Addr(), size, v)
}

var _ harden.Policy = (*Policy)(nil)
var _ harden.HoistQuery = (*Policy)(nil)
