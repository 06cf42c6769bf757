package core

import (
	"sgxbounds/internal/cache"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

// ChunkSize is the size of one boundless overlay chunk (1 KB, §5.1).
const ChunkSize = 1024

// DefaultBoundlessCap bounds the whole overlay LRU cache (1 MB, §4.2) so
// that attacks spanning gigabytes of out-of-bounds memory — a frequent
// consequence of integer overflows producing negative buffer sizes — cannot
// exhaust enclave memory.
const DefaultBoundlessCap = 1 << 20

// lockCost approximates the instruction cost of taking the overlay's global
// lock. The lock is simulated: every operation pays for it in cycles.
const lockCost = 20

// Boundless implements boundless memory blocks (§4.2): a bounded
// least-recently-used cache mapping out-of-bounds addresses to spare chunks
// of overlay memory. Out-of-bounds stores land in overlay chunks (allocated
// on demand, LRU-evicted at capacity); out-of-bounds loads read the overlay
// or, on a miss, fall back to failure-oblivious zeros.
//
// Every operation pays for one global lock (lockCost), mirroring the
// paper's uthash-based implementation: slow, but on the (supposedly rare)
// out-of-bounds slow path.
type Boundless struct {
	m *machine.Machine

	base   uint32         // overlay arena base (MetaAlloc'd lazily)
	nslots int            // capacity in chunks
	slots  map[uint32]int // chunk key (addr >> 10) -> slot index
	keys   []uint32       // slot -> chunk key
	stamp  []uint64       // slot -> LRU stamp
	clock  uint64
	used   int

	hits, misses, evicted uint64
}

// NewBoundless builds an overlay store with the given capacity in bytes.
func NewBoundless(m *machine.Machine, capBytes uint32) *Boundless {
	n := int(capBytes / ChunkSize)
	if n < 1 {
		n = 1
	}
	return &Boundless{
		m:      m,
		nslots: n,
		slots:  make(map[uint32]int, n),
		keys:   make([]uint32, n),
		stamp:  make([]uint64, n),
	}
}

// Stats returns (hits, misses, evictions) of the overlay cache.
func (b *Boundless) Stats() (hits, misses, evicted uint64) {
	return b.hits, b.misses, b.evicted
}

// arena lazily maps the overlay memory.
func (b *Boundless) arena() uint32 {
	if b.base == 0 {
		b.base = harden.MustAlloc(b.m.MetaAlloc(uint32(b.nslots) * ChunkSize))
	}
	return b.base
}

// lookup finds the overlay address for the chunk covering addr. With
// create, a missing chunk is allocated (evicting the LRU chunk at
// capacity); otherwise a miss returns ok=false.
func (b *Boundless) lookup(t *machine.Thread, addr uint32, create bool) (uint32, bool) {
	return b.lookupRun(t, addr, 1, create)
}

// lookupRun resolves the overlay address for the run [addr, addr+k), which
// must lie within one chunk, accounting k per-byte lookups in one step: the
// run's first byte performs the real probe, and the remaining k-1 bytes hit
// the chunk it just resolved (or miss the same absent chunk when create is
// false — the simulated program still paid k hash probes either way, so the
// LRU clock always advances by k).
func (b *Boundless) lookupRun(t *machine.Thread, addr, k uint32, create bool) (uint32, bool) {
	key := addr >> 10
	b.clock += uint64(k)
	if i, ok := b.slots[key]; ok {
		b.stamp[i] = b.clock
		b.hits += uint64(k)
		return b.arena() + uint32(i)*ChunkSize + (addr & (ChunkSize - 1)), true
	}
	if !create {
		b.misses += uint64(k)
		return 0, false
	}
	b.misses++
	b.hits += uint64(k - 1)
	var slot int
	if b.used < b.nslots {
		slot = b.used
		b.used++
	} else {
		// Evict the least recently used chunk.
		slot = 0
		oldest := b.stamp[0]
		for i := 1; i < b.nslots; i++ {
			if b.stamp[i] < oldest {
				oldest = b.stamp[i]
				slot = i
			}
		}
		delete(b.slots, b.keys[slot])
		b.evicted++
	}
	b.slots[key] = slot
	b.keys[slot] = key
	b.stamp[slot] = b.clock
	ov := b.arena() + uint32(slot)*ChunkSize
	// Fresh (or recycled) chunks read as zeros.
	t.Touch(ov, ChunkSize, true)
	b.m.AS.Memset(ov, 0, ChunkSize)
	return ov + (addr & (ChunkSize - 1)), true
}

// touchRun accounts the byte-wise overlay data accesses of one run: the
// run's cache lines go through the access pipeline once each, and the
// remaining bytes are the L1 hits a byte-at-a-time walk would produce.
func touchRun(t *machine.Thread, ov, k uint32, write bool) {
	t.Touch(ov, k, write)
	lines := (ov+k-1)>>cache.LineShift - ov>>cache.LineShift + 1
	t.ChargeSameLine(uint64(k-lines), write)
}

// runs splits [addr, addr+n) into chunk-contained runs and calls fn for each
// with the run's offset into the operation and length.
func runs(addr, n uint32, fn func(off, k uint32)) {
	for off := uint32(0); off < n; {
		k := ChunkSize - ((addr + off) & (ChunkSize - 1))
		if k > n-off {
			k = n - off
		}
		fn(off, k)
		off += k
	}
}

// Load serves an out-of-bounds load: overlay contents on a hit, zeros on a
// miss (failure-oblivious computing).
func (b *Boundless) Load(t *machine.Thread, addr uint32, size uint8) uint64 {
	t.Instr(lockCost)
	var buf [8]byte // chunks are 1 KB; accesses may straddle
	runs(addr, uint32(size), func(off, k uint32) {
		if ov, ok := b.lookupRun(t, addr+off, k, false); ok {
			touchRun(t, ov, k, false)
			b.m.AS.ReadBytes(ov, buf[off:off+k])
		}
	})
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v
}

// Store redirects an out-of-bounds store into the overlay.
func (b *Boundless) Store(t *machine.Thread, addr uint32, size uint8, v uint64) {
	t.Instr(lockCost)
	var buf [8]byte
	for i := uint8(0); i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	runs(addr, uint32(size), func(off, k uint32) {
		ov, _ := b.lookupRun(t, addr+off, k, true)
		touchRun(t, ov, k, true)
		b.m.AS.WriteBytes(ov, buf[off:off+k])
	})
}

// ReadBytes fills dst with the overlay contents of [addr, addr+len(dst)),
// zeros where no overlay chunk exists.
func (b *Boundless) ReadBytes(t *machine.Thread, addr uint32, dst []byte) {
	if len(dst) == 0 {
		return
	}
	t.Instr(lockCost)
	runs(addr, uint32(len(dst)), func(off, k uint32) {
		if ov, ok := b.lookupRun(t, addr+off, k, false); ok {
			touchRun(t, ov, k, false)
			b.m.AS.ReadBytes(ov, dst[off:off+k])
		} else {
			clear(dst[off : off+k])
		}
	})
}

// WriteBytes stores src into overlay chunks covering [addr, addr+len(src)).
func (b *Boundless) WriteBytes(t *machine.Thread, addr uint32, src []byte) {
	if len(src) == 0 {
		return
	}
	t.Instr(lockCost)
	runs(addr, uint32(len(src)), func(off, k uint32) {
		ov, _ := b.lookupRun(t, addr+off, k, true)
		touchRun(t, ov, k, true)
		b.m.AS.WriteBytes(ov, src[off:off+k])
	})
}

// SetBytes fills n overlay bytes starting at addr with c.
func (b *Boundless) SetBytes(t *machine.Thread, addr uint32, c byte, n uint32) {
	if n == 0 {
		return
	}
	t.Instr(lockCost)
	runs(addr, n, func(off, k uint32) {
		ov, _ := b.lookupRun(t, addr+off, k, true)
		touchRun(t, ov, k, true)
		b.m.AS.Memset(ov, c, k)
	})
}
