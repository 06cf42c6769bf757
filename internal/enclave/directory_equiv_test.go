package enclave

// This file checks the page-directory EPC against an independent model: the
// map-based CLOCK EPC the directory replaced, kept here as the reference.
// Random mixes of every probe entry point must produce the same per-page
// results, the same counters and the same residency, at capacities where
// CLOCK evicts on nearly every fault, and over page numbers that straddle
// directory chunks and reach the last page of the address space.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sgxbounds/internal/mem"
)

// refEPC is the map-based CLOCK EPC: resident maps a page to its ring slot,
// seen holds every page ever brought in.
type refEPC struct {
	capacity  int
	resident  map[uint32]int
	ring      []uint32
	refbit    []bool
	hand      int
	seen      map[uint32]struct{}
	faults    uint64
	evictions uint64
}

func newRefEPC(pages int) *refEPC {
	return &refEPC{
		capacity: pages,
		resident: map[uint32]int{},
		seen:     map[uint32]struct{}{},
	}
}

func (e *refEPC) touchPage(pn uint32) TouchResult {
	if i, ok := e.resident[pn]; ok {
		e.refbit[i] = true
		return TouchResult{}
	}
	r := TouchResult{Fault: true}
	e.faults++
	if _, ok := e.seen[pn]; !ok {
		e.seen[pn] = struct{}{}
		r.Cold = true
	}
	if len(e.ring) < e.capacity {
		e.resident[pn] = len(e.ring)
		e.ring = append(e.ring, pn)
		e.refbit = append(e.refbit, true)
		return r
	}
	for {
		if e.refbit[e.hand] {
			e.refbit[e.hand] = false
			e.hand = (e.hand + 1) % e.capacity
			continue
		}
		victim := e.ring[e.hand]
		delete(e.resident, victim)
		e.evictions++
		r.Evicted, r.Victim = true, victim
		e.ring[e.hand] = pn
		e.refbit[e.hand] = true
		e.resident[pn] = e.hand
		e.hand = (e.hand + 1) % e.capacity
		return r
	}
}

// touchPages runs pns through the reference, returning the warm and cold
// fault counts and the faulting pages' results in probe order.
func (e *refEPC) touchPages(pns []uint32) (warm, cold uint64, faults []pageFault) {
	for _, pn := range pns {
		if r := e.touchPage(pn); r.Fault {
			if r.Cold {
				cold++
			} else {
				warm++
			}
			faults = append(faults, pageFault{pn, r})
		}
	}
	return warm, cold, faults
}

type pageFault struct {
	pn uint32
	r  TouchResult
}

// epcOp is one probe: kind selects Touch, TouchInfo, TouchRange, TouchPages
// or TouchPagesFunc; addr and n address Touch, TouchInfo and TouchRange;
// pns feeds the page-list probes.
type epcOp struct {
	kind    uint8
	addr, n uint32
	pns     []uint32
}

const lastPage = 1<<(32-mem.PageShift) - 1

// pagesOf lists the page numbers [addr, addr+n) overlaps, as TouchRange
// walks them.
func pagesOf(addr, n uint32) []uint32 {
	if n == 0 {
		return nil
	}
	var pns []uint32
	for pn := addr >> mem.PageShift; pn <= (addr+n-1)>>mem.PageShift; pn++ {
		pns = append(pns, pn)
		if pn == lastPage {
			break
		}
	}
	return pns
}

// clipRange shortens n so that [addr, addr+n) ends within the address
// space.
func clipRange(addr, n uint32) uint32 {
	if n != 0 && addr+n-1 < addr {
		return -addr
	}
	return n
}

// runEPCOps replays ops on a fresh EPC of the given capacity and on the
// reference, comparing each probe's results, then the counters and the
// residency of every page in pool.
func runEPCOps(t *testing.T, capacity int, ops []epcOp, pool []uint32) {
	t.Helper()
	e := New(Config{Enabled: true, EPCBytes: uint64(capacity) * mem.PageSize})
	ref := newRefEPC(capacity)
	for i, op := range ops {
		where := fmt.Sprintf("capacity %d, op %d (kind %d)", capacity, i, op.kind%5)
		switch op.kind % 5 {
		case 0:
			fault, cold := e.Touch(op.addr)
			want := ref.touchPage(op.addr >> mem.PageShift)
			if fault != want.Fault || cold != want.Cold {
				t.Fatalf("%s: Touch(%#x) = %v, %v; reference %+v", where, op.addr, fault, cold, want)
			}
		case 1:
			got := e.TouchInfo(op.addr)
			if want := ref.touchPage(op.addr >> mem.PageShift); got != want {
				t.Fatalf("%s: TouchInfo(%#x) = %+v; reference %+v", where, op.addr, got, want)
			}
		case 2:
			warm, cold := e.TouchRange(op.addr, op.n)
			rw, rc, _ := ref.touchPages(pagesOf(op.addr, op.n))
			if warm != rw || cold != rc {
				t.Fatalf("%s: TouchRange(%#x, %d) = %d, %d; reference %d, %d", where, op.addr, op.n, warm, cold, rw, rc)
			}
		case 3:
			warm, cold := e.TouchPages(op.pns)
			rw, rc, _ := ref.touchPages(op.pns)
			if warm != rw || cold != rc {
				t.Fatalf("%s: TouchPages(%v) = %d, %d; reference %d, %d", where, op.pns, warm, cold, rw, rc)
			}
		case 4:
			var got []pageFault
			warm, cold := e.TouchPagesFunc(op.pns, func(pn uint32, r TouchResult) {
				got = append(got, pageFault{pn, r})
			})
			rw, rc, want := ref.touchPages(op.pns)
			if warm != rw || cold != rc || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TouchPagesFunc(%v) = %d, %d, %+v; reference %d, %d, %+v", where, op.pns, warm, cold, got, rw, rc, want)
			}
		}
		if e.Faults() != ref.faults || e.Evictions() != ref.evictions {
			t.Fatalf("%s: faults/evictions = %d/%d; reference %d/%d", where, e.Faults(), e.Evictions(), ref.faults, ref.evictions)
		}
	}
	if got, want := e.ResidentPages(), len(ref.ring); got != want {
		t.Errorf("capacity %d: ResidentPages = %d; reference %d", capacity, got, want)
	}
	if got, want := e.PeakResident(), len(ref.ring); got != want {
		t.Errorf("capacity %d: PeakResident = %d; reference %d", capacity, got, want)
	}
	if got, want := e.TouchedPages(), len(ref.seen); got != want {
		t.Errorf("capacity %d: TouchedPages = %d; reference %d", capacity, got, want)
	}
	for _, pn := range pool {
		_, want := ref.resident[pn]
		if got := e.Resident(pn<<mem.PageShift + mem.PageSize - 1); got != want {
			t.Errorf("capacity %d: Resident(page %#x) = %v; reference %v", capacity, pn, got, want)
		}
	}
}

// epcPool returns page numbers around directory-chunk boundaries — the
// first and last chunks of the address space included — plus a few
// anywhere.
func epcPool(rng *rand.Rand) []uint32 {
	pool := []uint32{0, 1, chunkPages - 1, chunkPages, lastPage - 1, lastPage}
	for i := 0; i < 4; i++ {
		b := uint32(1+rng.Intn(dirChunks-1)) * chunkPages
		pool = append(pool, b-1, b)
	}
	for i := 0; i < 6; i++ {
		pool = append(pool, uint32(rng.Intn(lastPage+1)))
	}
	return pool
}

// randomEPCOps draws n probes over pool. Ranges start anywhere in a pool
// page and cover up to three pages, clipped at the end of the address
// space; page lists hold up to five pool pages, repeats allowed.
func randomEPCOps(rng *rand.Rand, pool []uint32, n int) []epcOp {
	pick := func() uint32 { return pool[rng.Intn(len(pool))] }
	ops := make([]epcOp, n)
	for i := range ops {
		op := epcOp{
			kind: uint8(rng.Intn(5)),
			addr: pick()<<mem.PageShift + uint32(rng.Intn(mem.PageSize)),
		}
		op.n = clipRange(op.addr, uint32(rng.Intn(3*mem.PageSize)))
		for k := rng.Intn(6); k > 0; k-- {
			op.pns = append(op.pns, pick())
		}
		ops[i] = op
	}
	return ops
}

func TestDirectoryMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 16} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := epcPool(rng)
			runEPCOps(t, capacity, randomEPCOps(rng, pool, 600), pool)
		}
	}
}

// FuzzEPCEquivalence lets the fuzzer hunt for probe mixes that split the
// directory from the reference. The first byte picks the capacity (1, 2 or
// 16 pages); each following 4-byte group is one op: a kind, two bytes
// picking pool pages, and a range length in 64-byte units.
func FuzzEPCEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 3, 4, 9, 2, 5, 5, 200})
	f.Add([]byte{2, 4, 0, 1, 0, 3, 2, 3, 0, 1, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := []int{1, 2, 16}[int(data[0])%3]
		pool := epcPool(rand.New(rand.NewSource(1)))
		var ops []epcOp
		for i := 1; i+4 <= len(data) && len(ops) < 512; i += 4 {
			a, b := pool[int(data[i+1])%len(pool)], pool[int(data[i+2])%len(pool)]
			op := epcOp{
				kind: data[i],
				addr: a<<mem.PageShift + uint32(data[i+2])<<4,
				pns:  []uint32{a, b, a},
			}
			op.n = clipRange(op.addr, uint32(data[i+3])<<6)
			ops = append(ops, op)
		}
		runEPCOps(t, capacity, ops, pool)
	})
}
