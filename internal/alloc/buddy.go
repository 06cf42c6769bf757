// Buddy allocator: the backing store for the Baggy Bounds baseline (§2.2).
// Baggy Bounds enforces *allocation* bounds rather than object bounds by
// rounding every allocation to a power of two and aligning it to its size,
// so that the base and bound of any pointer can be derived from the pointer
// value and a 5-bit size tag — no metadata loads at all, at the price of
// allocation slack (the paper quotes 12% memory overhead on SPEC).

package alloc

import (
	"fmt"

	"sgxbounds/internal/machine"
)

// BuddyMinShift is log2 of the smallest buddy block (16 bytes).
const BuddyMinShift = 4

// BuddyMaxShift is log2 of the largest buddy block (16 MiB).
const BuddyMaxShift = 24

// Buddy is a binary-buddy allocator over a dedicated mmap'd arena. Every
// block is a power of two in size and aligned to its size, which is the
// invariant Baggy Bounds checks rely on.
type Buddy struct {
	m          *machine.Machine
	base       uint32
	size       uint32
	arenaShift uint8
	free       [BuddyMaxShift + 1][]uint32 // free block addresses per order
	live       map[uint32]uint8            // addr -> order of live blocks

	liveBytes uint64
	peakBytes uint64
}

// NewBuddy creates a buddy allocator with an arena of the given power-of-two
// size (bytes).
func NewBuddy(m *machine.Machine, arenaShift uint8) (*Buddy, error) {
	if arenaShift > BuddyMaxShift {
		return nil, fmt.Errorf("alloc: buddy arena shift %d > max %d", arenaShift, BuddyMaxShift)
	}
	size := uint32(1) << arenaShift
	base, err := m.Mmap(size)
	if err != nil {
		return nil, err
	}
	// Align the arena base to its size so that block alignment invariants
	// hold. Mmap returns page-aligned addresses; over-allocate if needed.
	if base&(size-1) != 0 {
		pad := size - base&(size-1)
		if _, err := m.Mmap(pad + size); err != nil {
			return nil, err
		}
		base = (base + size - 1) &^ (size - 1)
	}
	b := &Buddy{m: m, base: base, size: size, arenaShift: arenaShift, live: make(map[uint32]uint8)}
	b.free[arenaShift] = append(b.free[arenaShift], base)
	return b, nil
}

// OrderFor returns the buddy order (log2 block size) for a payload size.
func OrderFor(size uint32) uint8 {
	order := uint8(BuddyMinShift)
	for uint32(1)<<order < size {
		order++
	}
	return order
}

// Alloc allocates a block of at least size bytes, returning its address.
// The returned address is aligned to the (power-of-two) block size.
func (b *Buddy) Alloc(t *machine.Thread, size uint32) (uint32, uint8, error) {
	if size == 0 {
		size = 1
	}
	order := OrderFor(size)
	t.C.Allocs++
	t.Instr(25)

	// Find the smallest order with a free block.
	o := order
	for int(o) < len(b.free) && len(b.free[o]) == 0 {
		o++
	}
	if int(o) >= len(b.free) {
		return 0, 0, machine.ErrOutOfMemory
	}
	addr := b.free[o][len(b.free[o])-1]
	b.free[o] = b.free[o][:len(b.free[o])-1]
	// Split down to the requested order.
	for o > order {
		o--
		buddy := addr + (uint32(1) << o)
		b.free[o] = append(b.free[o], buddy)
	}
	b.live[addr] = order
	b.liveBytes += uint64(uint32(1) << order)
	b.peakBytes = max(b.peakBytes, b.liveBytes)
	return addr, order, nil
}

// Free releases a block previously returned by Alloc, coalescing buddies.
func (b *Buddy) Free(t *machine.Thread, addr uint32) error {
	t.C.Frees++
	t.Instr(20)
	order, ok := b.live[addr]
	if !ok {
		return fmt.Errorf("%w: addr %#x", ErrBadFree, addr)
	}
	delete(b.live, addr)
	b.liveBytes -= uint64(uint32(1) << order)
	// Coalesce with free buddies.
	for order < b.arenaShift {
		buddy := b.base + ((addr - b.base) ^ (uint32(1) << order))
		idx := -1
		for i, f := range b.free[order] {
			if f == buddy {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		last := len(b.free[order]) - 1
		b.free[order][idx] = b.free[order][last]
		b.free[order] = b.free[order][:last]
		if buddy < addr {
			addr = buddy
		}
		order++
	}
	b.free[order] = append(b.free[order], addr)
	return nil
}

// OrderOf returns the order of a live block, for bounds derivation.
func (b *Buddy) OrderOf(addr uint32) (uint8, bool) {
	o, ok := b.live[addr]
	return o, ok
}

// LiveBytes returns the block-rounded live byte count (includes slack).
func (b *Buddy) LiveBytes() uint64 {
	return b.liveBytes
}

// PeakBytes returns the high-water mark of block-rounded live bytes.
func (b *Buddy) PeakBytes() uint64 {
	return b.peakBytes
}
