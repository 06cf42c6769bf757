// Package mem implements the simulated 32-bit enclave address space that
// every other component operates on.
//
// The paper's key architectural premise (§3.1) is that SGX enclaves confine
// all application code and data to the low 32 bits of the virtual address
// space, leaving the upper 32 bits of every 64-bit pointer free for the
// SGXBounds tag. This package provides exactly that substrate: a sparse,
// page-granular 4 GiB space addressed by uint32, with an explicit
// reserve/commit split so that the evaluation can report "maximum amount of
// reserved virtual memory" the same way §6.1 of the paper does (the Linux
// kernel cannot see the resident set inside an enclave, so the paper — and
// this reproduction — accounts reserved virtual memory and, separately,
// committed pages).
package mem

import (
	"encoding/binary"
	"fmt"

	"sgxbounds/internal/telemetry"
)

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the page size of the simulated address space (4 KiB).
	PageSize = 1 << PageShift
	// NumPages is the number of pages in the 32-bit space.
	NumPages = 1 << (32 - PageShift)
)

type page [PageSize]byte

// The page table is two-level so that an AddressSpace costs kilobytes, not
// megabytes, until pages are actually committed: a flat table would be one
// million pointer slots (8 MB to allocate, zero and GC-scan per simulated
// machine, and experiment sweeps build hundreds of machines), while the
// sparse spaces the benchmarks touch populate only a handful of chunks.
const (
	chunkShift = 9                      // log2 pages per chunk (2 MiB of space)
	chunkPages = 1 << chunkShift        //
	numChunks  = NumPages >> chunkShift //
)

type chunk [chunkPages]*page

// AddressSpace is a sparse 32-bit byte-addressable memory. Pages are
// committed (backed by real storage) on first touch. An AddressSpace
// belongs to the goroutine that runs its machine; the simulated threads
// that share it run in turn.
type AddressSpace struct {
	chunks [numChunks]*chunk

	committed    uint64 // bytes backed by committed pages
	reserved     uint64 // bytes of reserved virtual memory
	peakReserved uint64 // high-water mark of reserved
	peakCommit   uint64 // high-water mark of committed

	// Pre-resolved telemetry counters (nil when telemetry is disabled;
	// nil-safe). Touched only on the commit/decommit slow paths.
	mCommits   *telemetry.Counter
	mDecommits *telemetry.Counter
}

// New returns an empty address space.
func New() *AddressSpace {
	return &AddressSpace{}
}

// Instrument attaches pre-resolved telemetry counters for page commits and
// decommits. Nil handles disable the metric; Instrument must be called
// before the space sees traffic.
func (as *AddressSpace) Instrument(commits, decommits *telemetry.Counter) {
	as.mCommits, as.mDecommits = commits, decommits
}

// Reserve records size bytes of reserved virtual memory (the analogue of
// mmap with PROT_NONE or of carving out a shadow region). Reservation is
// pure accounting: no pages are committed.
func (as *AddressSpace) Reserve(size uint64) {
	as.reserved += size
	as.peakReserved = max(as.peakReserved, as.reserved)
}

// Release returns size bytes of reserved virtual memory.
func (as *AddressSpace) Release(size uint64) {
	as.reserved -= size
}

// Reserved returns the current amount of reserved virtual memory in bytes.
func (as *AddressSpace) Reserved() uint64 { return as.reserved }

// PeakReserved returns the high-water mark of reserved virtual memory. This
// is the "memory overhead" metric of the paper's evaluation.
func (as *AddressSpace) PeakReserved() uint64 { return as.peakReserved }

// Committed returns the bytes currently backed by committed pages.
func (as *AddressSpace) Committed() uint64 { return as.committed }

// PeakCommitted returns the high-water mark of committed bytes.
func (as *AddressSpace) PeakCommitted() uint64 { return as.peakCommit }

// Decommit drops the page containing addr, returning its storage. It models
// freeing whole pages back to the (simulated) OS.
func (as *AddressSpace) Decommit(addr uint32) {
	pn := addr >> PageShift
	if ch := as.chunks[pn>>chunkShift]; ch != nil && ch[pn&(chunkPages-1)] != nil {
		ch[pn&(chunkPages-1)] = nil
		as.committed -= PageSize
		as.mDecommits.Inc()
	}
}

// pageFor returns the page containing addr, committing it if needed.
func (as *AddressSpace) pageFor(addr uint32) *page {
	pn := addr >> PageShift
	if ch := as.chunks[pn>>chunkShift]; ch != nil {
		if p := ch[pn&(chunkPages-1)]; p != nil {
			return p
		}
	}
	return as.commitPage(pn)
}

// commitPage is pageFor's slow path: it commits the uncommitted page pn,
// installing its chunk first if needed.
func (as *AddressSpace) commitPage(pn uint32) *page {
	ch := as.chunks[pn>>chunkShift]
	if ch == nil {
		ch = new(chunk)
		as.chunks[pn>>chunkShift] = ch
	}
	p := new(page)
	ch[pn&(chunkPages-1)] = p
	as.mCommits.Inc()
	as.committed += PageSize
	as.peakCommit = max(as.peakCommit, as.committed)
	return p
}

// IsCommitted reports whether the page containing addr is committed.
func (as *AddressSpace) IsCommitted(addr uint32) bool {
	pn := addr >> PageShift
	ch := as.chunks[pn>>chunkShift]
	return ch != nil && ch[pn&(chunkPages-1)] != nil
}

// Load reads size bytes (1, 2, 4 or 8) at addr, little-endian.
func (as *AddressSpace) Load(addr uint32, size uint8) uint64 {
	if off := addr & (PageSize - 1); off+uint32(size) <= PageSize {
		p := as.pageFor(addr)
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		default:
			panic(fmt.Sprintf("mem: bad access size %d", size))
		}
	}
	// Access straddles a page boundary: assemble byte-wise.
	var v uint64
	for i := uint8(0); i < size; i++ {
		p := as.pageFor(addr + uint32(i))
		v |= uint64(p[(addr+uint32(i))&(PageSize-1)]) << (8 * i)
	}
	return v
}

// Store writes size bytes (1, 2, 4 or 8) of v at addr, little-endian.
func (as *AddressSpace) Store(addr uint32, size uint8, v uint64) {
	if off := addr & (PageSize - 1); off+uint32(size) <= PageSize {
		p := as.pageFor(addr)
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		default:
			panic(fmt.Sprintf("mem: bad access size %d", size))
		}
		return
	}
	for i := uint8(0); i < size; i++ {
		p := as.pageFor(addr + uint32(i))
		p[(addr+uint32(i))&(PageSize-1)] = byte(v >> (8 * i))
	}
}

// ReadBytes copies n bytes starting at addr into dst (len(dst) >= n).
func (as *AddressSpace) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint32(len(dst)) < n {
			n = uint32(len(dst))
		}
		p := as.pageFor(addr)
		copy(dst[:n], p[off:off+n])
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (as *AddressSpace) WriteBytes(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint32(len(src)) < n {
			n = uint32(len(src))
		}
		p := as.pageFor(addr)
		copy(p[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// Memset fills n bytes starting at addr with b.
func (as *AddressSpace) Memset(addr uint32, b byte, n uint32) {
	for n > 0 {
		off := addr & (PageSize - 1)
		c := uint32(PageSize) - off
		if n < c {
			c = n
		}
		p := as.pageFor(addr)
		s := p[off : off+c]
		for i := range s {
			s[i] = b
		}
		n -= c
		addr += c
	}
}

// Memmove copies n bytes from src to dst, handling overlap like memmove(3).
func (as *AddressSpace) Memmove(dst, src uint32, n uint32) {
	if n == 0 || dst == src {
		return
	}
	buf := make([]byte, n)
	as.ReadBytes(src, buf)
	as.WriteBytes(dst, buf)
}
