// Package alloc implements the heap allocators used by the simulated
// programs: a segregated free-list allocator (the stand-in for the SCONE
// libc malloc every policy wraps) and a buddy allocator (used by the Baggy
// Bounds baseline, which enforces power-of-two allocation bounds, §2.2).
//
// Small allocations are served from a bump region with per-size-class free
// lists; large allocations are served page-aligned from the machine's mmap
// region — which is what makes the paper's Apache observation reproducible
// (a page-aligned allocation plus 4 bytes of SGXBounds metadata spills into
// a whole extra page, §7).
//
// Each object carries an 8-byte header (size, state tag) in simulated
// memory; header accesses are accounted like any other access, so allocation
// churn has a cache cost, as it does in reality.
package alloc

import (
	"errors"
	"fmt"

	"sgxbounds/internal/machine"
	"sgxbounds/internal/mem"
)

// HeaderSize is the per-object allocator header in bytes.
const HeaderSize = 8

// LargeThreshold is the payload size above which allocations are served
// page-aligned from the mmap region.
const LargeThreshold = 4096 - HeaderSize

// growChunk is how much the small-object region grows at a time.
const growChunk = 64 << 10

// Header state tags, stored in the second header word. The tags let tests
// and the double-free defence distinguish live, freed and quarantined
// objects.
const (
	TagLive       = 0xA110C8ED
	TagFree       = 0xF4EEF4EE
	TagQuarantine = 0x0B5E4EED
)

// ErrBadFree reports a free of a non-live or unknown object.
var ErrBadFree = errors.New("alloc: free of invalid or already-freed object")

const numClasses = 256 // multiples of 16 up to 4096

// Heap is a segregated free-list allocator over the machine's heap region.
// Like the machine, it belongs to one goroutine; the simulated threads that
// share it run in turn.
type Heap struct {
	m *machine.Machine

	brk      uint32               // next unallocated byte in the small-object region
	reserved uint32               // top of the reserved portion of the region
	free     [numClasses][]uint32 // free block addresses (header address)
	large    map[uint32]uint32    // large payload addr -> mapped size

	liveObjects uint64
	liveBytes   uint64
	peakBytes   uint64
}

// NewHeap creates a heap over m's heap region.
func NewHeap(m *machine.Machine) *Heap {
	return &Heap{
		m:        m,
		brk:      machine.HeapBase,
		reserved: machine.HeapBase,
		large:    make(map[uint32]uint32),
	}
}

func classFor(size uint32) int { return int((size + 15) / 16) }

func classSize(class int) uint32 { return uint32(class) * 16 }

// Alloc allocates size payload bytes and returns the payload address.
// The allocation cost (free-list manipulation, header write) is charged to t.
func (h *Heap) Alloc(t *machine.Thread, size uint32) (uint32, error) {
	if size == 0 {
		size = 1
	}
	t.C.Allocs++
	t.Instr(20) // allocator bookkeeping
	if size > LargeThreshold {
		return h.allocLarge(t, size)
	}
	class := classFor(size)
	block := classSize(class)

	var hdr uint32
	if list := h.free[class]; len(list) > 0 {
		hdr = list[len(list)-1]
		h.free[class] = list[:len(list)-1]
	} else {
		need := HeaderSize + block
		aligned := (h.brk + 7) &^ 7
		for aligned+need > h.reserved {
			if h.reserved+growChunk > machine.HeapTop {
				return 0, machine.ErrOutOfMemory
			}
			if err := h.m.TryReserve(growChunk); err != nil {
				return 0, err
			}
			h.reserved += growChunk
		}
		hdr = aligned
		h.brk = aligned + need
	}
	h.liveObjects++
	h.liveBytes += uint64(block)
	h.peakBytes = max(h.peakBytes, h.liveBytes)

	t.Store(hdr, 4, uint64(size))
	t.Store(hdr+4, 4, TagLive)
	return hdr + HeaderSize, nil
}

func (h *Heap) allocLarge(t *machine.Thread, size uint32) (uint32, error) {
	mapped := (HeaderSize + size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	base, err := h.m.Mmap(mapped)
	if err != nil {
		return 0, err
	}
	payload := base + HeaderSize
	h.large[payload] = mapped
	h.liveObjects++
	h.liveBytes += uint64(mapped)
	h.peakBytes = max(h.peakBytes, h.liveBytes)
	t.Store(base, 4, uint64(size))
	t.Store(base+4, 4, TagLive)
	return payload, nil
}

// SizeOf returns the requested payload size of a live or quarantined object.
func (h *Heap) SizeOf(t *machine.Thread, payload uint32) uint32 {
	return uint32(t.Load(payload-HeaderSize, 4))
}

// Tag returns the allocator state tag of the object at payload.
func (h *Heap) Tag(t *machine.Thread, payload uint32) uint32 {
	return uint32(t.Load(payload-HeaderSize+4, 4))
}

// SetTag overwrites the object's state tag (used by quarantine policies).
func (h *Heap) SetTag(t *machine.Thread, payload uint32, tag uint32) {
	t.Store(payload-HeaderSize+4, 4, uint64(tag))
}

// Free releases the object at payload.
func (h *Heap) Free(t *machine.Thread, payload uint32) error {
	t.C.Frees++
	t.Instr(15)
	hdr := payload - HeaderSize
	size := uint32(t.Load(hdr, 4))
	tag := uint32(t.Load(hdr+4, 4))
	if tag != TagLive && tag != TagQuarantine {
		return fmt.Errorf("%w: addr %#x tag %#x", ErrBadFree, payload, tag)
	}
	t.Store(hdr+4, 4, TagFree)

	if mapped, ok := h.large[payload]; ok {
		delete(h.large, payload)
		h.liveObjects--
		h.liveBytes -= uint64(mapped)
		h.m.Munmap(hdr, mapped)
		return nil
	}
	class := classFor(size)
	h.free[class] = append(h.free[class], hdr)
	h.liveObjects--
	h.liveBytes -= uint64(classSize(class))
	return nil
}

// LiveObjects returns the number of live objects.
func (h *Heap) LiveObjects() uint64 {
	return h.liveObjects
}

// LiveBytes returns the bytes currently allocated (block-rounded).
func (h *Heap) LiveBytes() uint64 {
	return h.liveBytes
}

// PeakBytes returns the high-water mark of allocated bytes.
func (h *Heap) PeakBytes() uint64 {
	return h.peakBytes
}
