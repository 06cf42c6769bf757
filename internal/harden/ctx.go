package harden

import "sgxbounds/internal/machine"

// Ctx bundles a policy with one simulated thread. Workloads are written
// against Ctx; a multithreaded workload makes one Ctx per worker thread.
type Ctx struct {
	P Policy
	T *machine.Thread
}

// NewCtx pairs a policy with a thread.
func NewCtx(p Policy, t *machine.Thread) *Ctx { return &Ctx{P: p, T: t} }

// Fork returns a Ctx for the same policy on another thread.
func (c *Ctx) Fork(t *machine.Thread) *Ctx { return &Ctx{P: c.P, T: t} }

// Work retires n instructions of pure computation.
func (c *Ctx) Work(n uint64) { c.T.Instr(n) }

// Malloc allocates size bytes on the heap.
func (c *Ctx) Malloc(size uint32) Ptr { return c.P.Malloc(c.T, size) }

// Calloc allocates n*size zeroed bytes.
func (c *Ctx) Calloc(n, size uint32) Ptr { return c.P.Calloc(c.T, n, size) }

// Free releases a heap object.
func (c *Ctx) Free(p Ptr) { c.P.Free(c.T, p) }

// Global allocates a global object.
func (c *Ctx) Global(size uint32) Ptr { return c.P.Global(c.T, size) }

// Add performs instrumented pointer arithmetic.
func (c *Ctx) Add(p Ptr, delta int64) Ptr { return c.P.Add(c.T, p, delta) }

// AddSafe performs compiler-proven-safe pointer arithmetic.
func (c *Ctx) AddSafe(p Ptr, delta int64) Ptr { return c.P.AddSafe(c.T, p, delta) }

// Load reads size bytes at p with a bounds check.
func (c *Ctx) Load(p Ptr, size uint8) uint64 { return c.P.Load(c.T, p, size) }

// Store writes size bytes at p with a bounds check.
func (c *Ctx) Store(p Ptr, size uint8, v uint64) { c.P.Store(c.T, p, size, v) }

// LoadAt reads size bytes at p+off (one pointer-arithmetic op plus one
// checked access, like a compiled a[i]).
func (c *Ctx) LoadAt(p Ptr, off int64, size uint8) uint64 {
	return c.P.Load(c.T, c.P.Add(c.T, p, off), size)
}

// StoreAt writes size bytes at p+off.
func (c *Ctx) StoreAt(p Ptr, off int64, size uint8, v uint64) {
	c.P.Store(c.T, c.P.Add(c.T, p, off), size, v)
}

// LoadPtrAt reads a pointer stored at p+off (pointer fill).
func (c *Ctx) LoadPtrAt(p Ptr, off int64) Ptr {
	return c.P.LoadPtr(c.T, c.P.Add(c.T, p, off))
}

// StorePtrAt spills pointer q to p+off.
func (c *Ctx) StorePtrAt(p Ptr, off int64, q Ptr) {
	c.P.StorePtr(c.T, c.P.Add(c.T, p, off), q)
}

// CheckRange performs one hoisted check over [p, p+n).
func (c *Ctx) CheckRange(p Ptr, n uint32, kind AccessKind) {
	c.P.CheckRange(c.T, p, n, kind)
}

// LoadRawAt reads size bytes at p+off without a check (after CheckRange or
// for statically safe accesses).
func (c *Ctx) LoadRawAt(p Ptr, off int64, size uint8) uint64 {
	return c.P.LoadRaw(c.T, c.P.AddSafe(c.T, p, off), size)
}

// StoreRawAt writes size bytes at p+off without a check.
func (c *Ctx) StoreRawAt(p Ptr, off int64, size uint8, v uint64) {
	c.P.StoreRaw(c.T, c.P.AddSafe(c.T, p, off), size, v)
}

// Frame tracks the stack objects of one simulated function invocation so
// that policies can retire their metadata when the frame pops (for example
// AddressSanitizer unpoisons the frame's redzones).
type Frame struct {
	c     *Ctx
	token uint32
	objs  []frameObj
}

type frameObj struct {
	p    Ptr
	size uint32
}

// PushFrame opens a stack frame on the context's thread.
func (c *Ctx) PushFrame() *Frame {
	return &Frame{c: c, token: c.T.PushFrame()}
}

// Alloc allocates a stack object in the frame.
func (f *Frame) Alloc(size uint32) Ptr {
	p := f.c.P.StackAlloc(f.c.T, size)
	f.objs = append(f.objs, frameObj{p, size})
	return p
}

// Pop closes the frame, retiring its objects in reverse order.
func (f *Frame) Pop() {
	for i := len(f.objs) - 1; i >= 0; i-- {
		f.c.P.StackFree(f.c.T, f.objs[i].p, f.objs[i].size)
	}
	f.c.T.PopFrame(f.token)
}

// AtomicAddAt performs a checked atomic fetch-and-add of an 8-byte word at
// p+off, returning the new value. The paper's instrumentation covers
// "loads, stores, and atomic operations" (§3.2) uniformly: the bounds
// check is the same; Machine.Atomically charges the lock prefix, and the
// machine's threads run in turn, so no other access lands in between.
func (c *Ctx) AtomicAddAt(p Ptr, off int64, delta uint64) uint64 {
	q := c.P.Add(c.T, p, off)
	var v uint64
	c.T.M.Atomically(c.T, func() {
		v = c.P.Load(c.T, q, 8) + delta
		c.P.Store(c.T, q, 8, v)
	})
	return v
}

// AtomicCASAt performs a checked atomic compare-and-swap of an 8-byte word
// at p+off, reporting whether the swap happened.
func (c *Ctx) AtomicCASAt(p Ptr, off int64, old, new uint64) bool {
	q := c.P.Add(c.T, p, off)
	var ok bool
	c.T.M.Atomically(c.T, func() {
		if c.P.Load(c.T, q, 8) == old {
			c.P.Store(c.T, q, 8, new)
			ok = true
		}
	})
	return ok
}

// AtomicStorePtrAt atomically spills pointer q to p+off. For tagged-pointer
// policies this is the ordinary 64-bit store (pointer and bounds are one
// word, §4.1); for disjoint-metadata policies only the pointer word is
// atomic — the metadata race remains, which is the point the paper makes.
func (c *Ctx) AtomicStorePtrAt(p Ptr, off int64, q Ptr) {
	dst := c.P.Add(c.T, p, off)
	c.T.M.Atomically(c.T, func() { c.P.StorePtr(c.T, dst, q) })
}
