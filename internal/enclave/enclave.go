// Package enclave models the SGX Enclave Page Cache (EPC) and the costs of
// the memory encryption engine (MEE), following §2.1 of the paper.
//
// The EPC is a limited physical resource (94 MB usable on the paper's
// hardware). Enclave pages beyond the EPC capacity are evicted by the OS to
// untrusted memory: the page is re-encrypted on eviction and decrypted and
// integrity-checked when brought back, which makes EPC paging two to three
// orders of magnitude more expensive than a cache hit. This package tracks
// which simulated pages are EPC-resident, charges page faults on misses, and
// exposes the counters (page faults, evictions) that Table 3 of the paper
// reports.
//
// Because the whole reproduction is scaled down (see DESIGN.md §1), the
// default EPC size here is 6 MiB rather than 94 MB; the ratio of EPC size to
// benchmark working-set sizes matches the paper's.
package enclave

import (
	"sgxbounds/internal/mem"
	"sgxbounds/internal/telemetry"
)

// DefaultEPCBytes is the scaled default EPC capacity.
const DefaultEPCBytes = 6 << 20

// Config controls the enclave model.
type Config struct {
	// Enabled selects shielded execution. When false the machine models a
	// normal, unconstrained environment (used by the Figure 12 experiment):
	// no EPC capacity limit and no MEE factor.
	Enabled bool
	// EPCBytes is the EPC capacity in bytes. Zero selects DefaultEPCBytes.
	EPCBytes uint64
}

// chunkShift is log2 of the pages in one directory chunk (2 MiB of address
// space); dirChunks chunks cover the 32-bit address space.
const (
	chunkShift = 21 - mem.PageShift
	chunkPages = 1 << chunkShift
	dirChunks  = 1 << (32 - 21)
)

// chunk is the page-directory entry for 2 MiB of address space, allocated
// on the first touch of any of its pages.
type chunk struct {
	slot [chunkPages]int32       // CLOCK ring index + 1 of a resident page, 0 if not resident
	seen [chunkPages / 64]uint64 // bitmap of pages ever brought into the EPC
}

// EPC tracks enclave-page residency with a CLOCK (second-chance) eviction
// policy, which approximates the kernel's page reclaim well enough to
// reproduce the paper's sequential-vs-random paging behaviour: sequential
// sweeps evict pages that are never touched again (cheap), while iterative
// working sets larger than the EPC thrash (expensive). A probe finds its
// page through a two-level directory, so a resident hit costs two loads and
// no hashing. An EPC belongs to the goroutine that runs its machine.
type EPC struct {
	capacity int      // pages
	ring     []uint32 // CLOCK ring of resident page numbers
	refbit   []bool
	hand     int
	dir      [dirChunks]*chunk // page number -> residency and first-touch state
	touched  int               // pages ever brought into the EPC

	faults    uint64
	evictions uint64

	// Pre-resolved telemetry handles (nil when telemetry is disabled; all
	// are nil-safe). They are touched only on the fault/eviction paths,
	// which are orders of magnitude rarer than EPC hits.
	mFaults    *telemetry.Counter
	mColds     *telemetry.Counter
	mEvictions *telemetry.Counter
}

// New builds an EPC with the configured capacity.
func New(cfg Config) *EPC {
	bytes := cfg.EPCBytes
	if bytes == 0 {
		bytes = DefaultEPCBytes
	}
	pages := int(bytes / mem.PageSize)
	if pages < 1 {
		pages = 1
	}
	return &EPC{capacity: pages}
}

// Capacity returns the EPC capacity in pages.
func (e *EPC) Capacity() int { return e.capacity }

// Instrument attaches pre-resolved telemetry counters for faults,
// compulsory (cold) faults and evictions. Nil handles disable the metric;
// Instrument must be called before the EPC sees traffic.
func (e *EPC) Instrument(faults, colds, evictions *telemetry.Counter) {
	e.mFaults, e.mColds, e.mEvictions = faults, colds, evictions
}

// TouchResult describes one EPC page probe in full: whether it faulted,
// whether the fault was compulsory, and which page (if any) was evicted to
// make room. The traced access path uses it to emit per-page events; the
// untraced wrappers discard the eviction detail.
type TouchResult struct {
	Fault   bool
	Cold    bool
	Evicted bool
	Victim  uint32 // evicted page number, valid only when Evicted
}

// Touch records an access to the page containing addr. It reports whether
// the access caused an EPC page fault and, if so, whether it was a
// compulsory (first-ever) fault. Compulsory faults model EAUG — the OS adds
// a fresh zeroed page, no decryption or integrity check of evicted content
// — and are far cheaper than paging back an evicted page, which must be
// fetched from untrusted memory, decrypted and verified.
func (e *EPC) Touch(addr uint32) (fault, cold bool) {
	r := e.touchPage(addr >> mem.PageShift)
	return r.Fault, r.Cold
}

// TouchInfo is Touch with the full probe detail (eviction victim included),
// for the traced access path. EPC state and counters evolve exactly as
// under Touch.
func (e *EPC) TouchInfo(addr uint32) TouchResult {
	return e.touchPage(addr >> mem.PageShift)
}

// TouchRange records one access to every page overlapping [addr, addr+n)
// and returns how many of those pages faulted: warm counts pages paged back
// in from untrusted memory (the expensive eviction/decryption path), cold
// counts compulsory EAUG faults. Bulk operations use it to fault at most
// once per page instead of probing the EPC once per cache line.
func (e *EPC) TouchRange(addr, n uint32) (warm, cold uint64) {
	if n == 0 {
		return 0, 0
	}
	first := addr >> mem.PageShift
	last := (addr + n - 1) >> mem.PageShift
	for pn := first; ; pn++ {
		if r := e.touchPage(pn); r.Fault {
			if r.Cold {
				cold++
			} else {
				warm++
			}
		}
		if pn == last {
			break
		}
	}
	return warm, cold
}

// TouchPages records one access to each given page number, in order,
// returning warm and cold fault counts as TouchRange does. The batched
// access pipeline passes the (deduplicated) pages of the cache lines that
// missed the LLC. Page numbers are those of the 32-bit address space
// (addr >> mem.PageShift, below 1<<20).
func (e *EPC) TouchPages(pns []uint32) (warm, cold uint64) {
	for _, pn := range pns {
		if r := e.touchPage(pn); r.Fault {
			if r.Cold {
				cold++
			} else {
				warm++
			}
		}
	}
	return warm, cold
}

// TouchPagesFunc is TouchPages with a per-fault callback: fn runs for every
// faulting page, in probe order, receiving the page number and the full
// probe detail. The traced access path uses it to emit fault and eviction
// events while keeping EPC state and fault counts bit-identical to
// TouchPages.
func (e *EPC) TouchPagesFunc(pns []uint32, fn func(pn uint32, r TouchResult)) (warm, cold uint64) {
	for _, pn := range pns {
		if r := e.touchPage(pn); r.Fault {
			if r.Cold {
				cold++
			} else {
				warm++
			}
			fn(pn, r)
		}
	}
	return warm, cold
}

// touchPage is Touch on a page number.
func (e *EPC) touchPage(pn uint32) TouchResult {
	c := e.dir[pn>>chunkShift]
	if c == nil {
		c = new(chunk)
		e.dir[pn>>chunkShift] = c
	}
	i := pn & (chunkPages - 1)
	if s := c.slot[i]; s != 0 {
		e.refbit[s-1] = true
		return TouchResult{}
	}
	r := TouchResult{Fault: true}
	e.faults++
	e.mFaults.Inc()
	if bit := uint64(1) << (i & 63); c.seen[i>>6]&bit == 0 {
		c.seen[i>>6] |= bit
		e.touched++
		r.Cold = true
		e.mColds.Inc()
	}
	if len(e.ring) < e.capacity {
		e.ring = append(e.ring, pn)
		e.refbit = append(e.refbit, true)
		c.slot[i] = int32(len(e.ring))
		return r
	}
	// CLOCK eviction: find a page with a clear reference bit.
	for {
		if e.refbit[e.hand] {
			e.refbit[e.hand] = false
			e.hand = (e.hand + 1) % e.capacity
			continue
		}
		victim := e.ring[e.hand]
		e.dir[victim>>chunkShift].slot[victim&(chunkPages-1)] = 0
		e.evictions++
		e.mEvictions.Inc()
		r.Evicted, r.Victim = true, victim
		e.ring[e.hand] = pn
		e.refbit[e.hand] = true
		c.slot[i] = int32(e.hand + 1)
		e.hand = (e.hand + 1) % e.capacity
		return r
	}
}

// Resident reports whether the page containing addr is EPC-resident.
func (e *EPC) Resident(addr uint32) bool {
	pn := addr >> mem.PageShift
	c := e.dir[pn>>chunkShift]
	return c != nil && c.slot[pn&(chunkPages-1)] != 0
}

// ResidentPages returns the number of EPC-resident pages.
func (e *EPC) ResidentPages() int {
	return len(e.ring)
}

// PeakResident returns the resident-page high-water mark. The CLOCK ring
// only ever grows (evictions replace a slot in place), so its length is the
// largest resident count the run has reached.
func (e *EPC) PeakResident() int {
	return len(e.ring)
}

// TouchedPages returns the number of distinct pages ever brought into the
// EPC — the run's total enclave page footprint, independent of eviction.
func (e *EPC) TouchedPages() int {
	return e.touched
}

// Faults returns the cumulative number of EPC page faults.
func (e *EPC) Faults() uint64 {
	return e.faults
}

// Evictions returns the cumulative number of EPC evictions.
func (e *EPC) Evictions() uint64 {
	return e.evictions
}
