// Package machine composes the simulated substrate — the 32-bit address
// space (internal/mem), the cache hierarchy (internal/cache) and the EPC
// model (internal/enclave) — into the execution environment that hardening
// policies and workloads run on.
//
// A Machine is the shared state (memory, LLC, EPC, cost model, virtual
// memory budget); a Thread is one simulated hardware thread with private
// L1/L2 caches and its own performance counters. Workloads run on threads;
// parallel sections are expressed with Machine.Parallel, which accounts the
// elapsed simulated time of a parallel phase as the maximum over the
// workers' cycles — the critical path — while still aggregating every
// worker's events into the machine totals for reporting.
//
// A Machine and everything built on it — its address space, caches and EPC,
// and the heaps and hardening policies over it — belong to one goroutine.
// Simulated threads run in turn on that goroutine (Machine.Parallel runs
// its workers in order), so none of this state takes a host lock; host
// parallelism lives one level up, across machines that share nothing
// (internal/bench.Engine). The one exception is Config.Cancel, which
// another goroutine sets to abort a run.
package machine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sgxbounds/internal/cache"
	"sgxbounds/internal/enclave"
	"sgxbounds/internal/mem"
	"sgxbounds/internal/perf"
	"sgxbounds/internal/telemetry"
)

// Address-space layout. The enclave is mapped at address 0 (the paper
// modifies the SGX driver and vm.mmap_min_addr so enclaves start at 0x0,
// §5.1); the first page stays unmapped to catch null dereferences, and the
// last page is unaddressable to protect the hoisted-check optimisation from
// 32-bit wrap-around (§4.4).
const (
	NullGuardTop = 0x0000_1000 // first page: never addressable
	GlobalsBase  = 0x0000_1000 // global objects, bump-allocated
	GlobalsTop   = 0x1000_0000
	HeapBase     = 0x1000_0000 // heap (managed by internal/alloc)
	HeapTop      = 0x8000_0000
	MmapBase     = 0x8000_0000 // page-granular mappings
	MmapTop      = 0xC000_0000
	StackBase    = 0xC000_0000 // per-thread stacks
	StackTop     = 0xD000_0000
	MetaBase     = 0xD000_0000 // policy metadata (shadow memory, bounds tables)
	MetaTop      = 0xFFFF_F000
	TopGuard     = 0xFFFF_F000 // last page: never addressable
)

// StackSize is the stack region reserved per simulated thread. (SCONE uses
// small per-thread stacks; the scaled workloads need far less than this.)
const StackSize = 256 << 10

// ErrOutOfMemory is returned when an allocation would exceed the enclave's
// virtual memory budget. This is the failure mode behind the paper's "Intel
// MPX crashes due to insufficient memory" results (Fig. 1, Fig. 7, Fig. 11).
var ErrOutOfMemory = errors.New("machine: enclave out of memory")

// ErrCanceled aborts a simulated run whose Config.Cancel flag was set: the
// next hierarchy probe on any thread panics with this value, which
// harden.Capture converts into Outcome.Canceled. Canceled results carry
// whatever partial counters had accumulated and must be discarded.
var ErrCanceled = errors.New("machine: run canceled")

// Config parameterises a Machine.
type Config struct {
	Enclave enclave.Config
	Cost    perf.CostModel

	// MemoryBudget caps reserved virtual memory (bytes). Zero selects
	// DefaultMemoryBudget inside an enclave and no limit outside.
	MemoryBudget uint64

	L1, L2, L3 cache.Config

	// Tel attaches a telemetry profile to the machine: its metrics registry
	// and event tracer receive the machine's observability stream (access
	// cost histograms, EPC fault/eviction events, LLC and page-commit
	// counters). Nil disables telemetry; the disabled hot path costs one
	// predictable branch per instrumentation site, and telemetry never
	// feeds back into simulated state, so results are identical either way.
	//
	// Events and the epc.* and mem.page_* counters are published as they
	// happen. The per-access metrics (machine.access_cycles,
	// machine.fault_service_cycles, machine.transitions, llc.*) are not:
	// each thread counts them in plain fields, and Parallel folds a
	// worker's counts into the registry when it drains the worker, Finish
	// the main thread's. A cell's folded metrics are therefore complete
	// when Finish returns, and not before; this holds for a cell that
	// unwound from a violation, an OOM or a cancel too, since Parallel
	// recovers its workers' panics before it drains them.
	Tel *telemetry.Profile

	// Cancel, when non-nil, lets the host abort simulated execution: once
	// the flag is set, every thread panics with ErrCanceled at its next
	// hierarchy probe. Like Tel it is a host-side channel, never part of a
	// cell's identity, and the disabled path (nil) costs one predictable
	// branch per probe. A run that completes without the flag ever being
	// set is bit-identical to one with Cancel == nil.
	//
	// This flag is the single abort path for every host-side lifetime
	// bound: user cancellation AND per-job deadlines both arrive here —
	// bench.Engine.BindContext sets the flag from a context, and sgxd
	// binds each job attempt to a deadline-bearing context, so a wedged
	// or slow cell unwinds at its next probe instead of holding a worker
	// forever.
	Cancel *atomic.Bool
}

// DefaultMemoryBudget is the scaled default enclave size (virtual memory
// available to the shielded application).
const DefaultMemoryBudget = 256 << 20

// DefaultConfig returns the in-enclave configuration used throughout the
// evaluation: Skylake-like private caches, a scaled LLC and EPC (see
// DESIGN.md §1 for the scaling argument).
func DefaultConfig() Config {
	return Config{
		Enclave:      enclave.Config{Enabled: true},
		Cost:         perf.Default(),
		MemoryBudget: DefaultMemoryBudget,
		L1:           cache.Config{Size: 32 << 10, Ways: 8},
		L2:           cache.Config{Size: 256 << 10, Ways: 8},
		L3:           cache.Config{Size: 2 << 20, Ways: 16},
	}
}

// NativeConfig returns the outside-enclave configuration (Figure 12): same
// caches, no EPC, no MEE, no memory budget.
func NativeConfig() Config {
	c := DefaultConfig()
	c.Enclave.Enabled = false
	c.MemoryBudget = 1 << 40
	return c
}

// Machine is the simulated hardware its threads share: memory, LLC, EPC
// and the virtual memory budget. It belongs to one goroutine (see the
// package doc).
type Machine struct {
	AS  *mem.AddressSpace
	Cfg Config
	L3  *cache.Cache
	EPC *enclave.EPC

	costs perf.Table // Cfg.Cost resolved for this machine's enclave setting

	globalsBrk uint32
	mmapBrk    uint32
	metaBrk    uint32
	nextStack  uint32
	workers    []*Thread // reusable worker pool for Parallel
	totals     perf.Counters

	tel *probes // pre-resolved telemetry handles (nil = disabled)
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.MemoryBudget == 0 {
		if cfg.Enclave.Enabled {
			cfg.MemoryBudget = DefaultMemoryBudget
		} else {
			cfg.MemoryBudget = 1 << 40
		}
	}
	if cfg.Cost.Instr == 0 {
		cfg.Cost = perf.Default()
	}
	m := &Machine{
		AS:         mem.New(),
		Cfg:        cfg,
		L3:         cache.New(cfg.L3),
		costs:      cfg.Cost.Table(cfg.Enclave.Enabled),
		globalsBrk: GlobalsBase,
		mmapBrk:    MmapBase,
		metaBrk:    MetaBase,
		nextStack:  StackBase,
	}
	if cfg.Enclave.Enabled {
		m.EPC = enclave.New(cfg.Enclave)
	}
	if p := cfg.Tel; p != nil {
		m.tel = &probes{
			tracer:       p.Tracer(),
			accessCycles: p.Histogram("machine.access_cycles"),
			faultCycles:  p.Histogram("machine.fault_service_cycles"),
			batchLines:   p.Histogram("machine.batch_lines"),
			batchCycles:  p.Histogram("machine.batch_cycles"),
			transitions:  p.Counter("machine.transitions"),
			llcAccesses:  p.Counter("llc.accesses"),
			llcMisses:    p.Counter("llc.misses"),
		}
		m.AS.Instrument(p.Counter("mem.page_commits"), p.Counter("mem.page_decommits"))
		if m.EPC != nil {
			m.EPC.Instrument(p.Counter("epc.faults"), p.Counter("epc.cold_faults"), p.Counter("epc.evictions"))
		}
	}
	return m
}

// Telemetry returns the profile attached at construction (nil if none).
func (m *Machine) Telemetry() *telemetry.Profile { return m.Cfg.Tel }

// probes are the machine's pre-resolved telemetry handles. The struct
// exists so the hot paths test one pointer (m.tel == nil) to skip all of
// telemetry; every handle inside is additionally nil-safe, so a profile
// with metrics but no tracer (or vice versa) needs no extra branching.
//
// The handles marked "folded" receive nothing on the access path;
// Thread.foldMetrics publishes them from per-thread counts (see
// Config.Tel), exactly, since each is a count or a histogram of a value
// fixed per hierarchy level.
type probes struct {
	tracer       *telemetry.Tracer
	accessCycles *telemetry.Histogram // cost of each scalar hierarchy probe (folded)
	faultCycles  *telemetry.Histogram // service cost of each warm EPC fault (folded)
	batchLines   *telemetry.Histogram // lines per batched access
	batchCycles  *telemetry.Histogram // cycles charged per batched access
	transitions  *telemetry.Counter   // enclave boundary crossings (folded)
	llcAccesses  *telemetry.Counter   // LLC probes, lines that missed L2 (folded)
	llcMisses    *telemetry.Counter   // LLC misses, lines served by memory (folded)
}

// MEEBurstLines is the memory-level line count at which a single batched
// access is flagged as an MEE burst (a spike of encrypted LLC<->DRAM
// traffic): 32 lines is 2 KiB moved through the memory encryption engine
// in one simulated operation.
const MEEBurstLines = 32

// noteEPC emits the fault/eviction events of one scalar EPC probe.
func (p *probes) noteEPC(tid int, ts uint64, pn uint32, r enclave.TouchResult) {
	if r.Fault {
		cold := uint64(0)
		if r.Cold {
			cold = 1
		}
		p.tracer.Emit(telemetry.Event{Ts: ts, Tid: int32(tid), Kind: telemetry.EvEPCFault,
			Arg0: uint64(pn), Arg1: cold})
	}
	if r.Evicted {
		p.tracer.Emit(telemetry.Event{Ts: ts, Tid: int32(tid), Kind: telemetry.EvEviction,
			Arg0: uint64(r.Victim)})
	}
}

// TryReserve reserves size bytes of virtual memory, failing with
// ErrOutOfMemory if it would exceed the enclave budget.
func (m *Machine) TryReserve(size uint64) error {
	if m.AS.Reserved()+size > m.Cfg.MemoryBudget {
		return ErrOutOfMemory
	}
	m.AS.Reserve(size)
	return nil
}

// GlobalAlloc carves size bytes (8-byte aligned) out of the globals region.
func (m *Machine) GlobalAlloc(size uint32) (uint32, error) {
	base := (m.globalsBrk + 7) &^ 7
	if base+size > GlobalsTop || base+size < base {
		return 0, ErrOutOfMemory
	}
	if err := m.TryReserve(uint64(size)); err != nil {
		return 0, err
	}
	m.globalsBrk = base + size
	return base, nil
}

// Mmap maps size bytes (page-aligned) in the mmap region.
func (m *Machine) Mmap(size uint32) (uint32, error) {
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if m.mmapBrk+size > MmapTop || m.mmapBrk+size < m.mmapBrk {
		return 0, ErrOutOfMemory
	}
	if err := m.TryReserve(uint64(size)); err != nil {
		return 0, err
	}
	base := m.mmapBrk
	m.mmapBrk += size
	return base, nil
}

// Munmap releases a mapping's reservation and decommits its pages. The
// region allocator is bump-only, so the addresses are not recycled; this
// matches the reproduction's reserved-VM accounting needs.
func (m *Machine) Munmap(addr, size uint32) {
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	m.AS.Release(uint64(size))
	for p := addr; p < addr+size; p += mem.PageSize {
		m.AS.Decommit(p)
	}
}

// MetaAlloc carves size bytes (page-aligned) out of the metadata region.
// Policies use it for shadow memory and bounds tables.
func (m *Machine) MetaAlloc(size uint32) (uint32, error) {
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if m.metaBrk+size > MetaTop || m.metaBrk+size < m.metaBrk {
		return 0, ErrOutOfMemory
	}
	if err := m.TryReserve(uint64(size)); err != nil {
		return 0, err
	}
	base := m.metaBrk
	m.metaBrk += size
	return base, nil
}

// Thread is one simulated hardware thread.
type Thread struct {
	M  *Machine
	ID int
	C  perf.Counters

	// Scratch is per-thread state for policies that model per-hart
	// resources — the MPX policy keeps its four-entry bounds-register file
	// here.
	Scratch [8]uint64

	l1, l2 *cache.Cache

	// lastLine and prevLine are 1 + the line numbers of this thread's two
	// most recent distinct cache-line probes (0 = none), with the invariant
	// that the two lines map to different L1 sets and neither set has been
	// probed since the line's own probe. Under that invariant a scalar
	// access to either line is a guaranteed L1 hit (private L1, the line's
	// set untouched in between, so the line is still resident), and skipping
	// the probe cannot change any future replacement decision: LRU compares
	// ranks only within one set, the set saw no other probe since, and the
	// line already holds its set's top rank.
	// Tracking two lines instead of one catches the pervasive
	// data-line/metadata-line alternation of the hardening policies (shadow
	// bytes, bounds-table entries, tagged-pointer bounds words).
	lastLine uint32
	prevLine uint32

	// missBuf are the reusable spill buffers of the batched access pipeline:
	// lines that missed L1, lines that missed L2, lines that missed the LLC,
	// and the deduplicated pages of the LLC misses.
	missBuf [4][]uint32

	stackLo uint32 // bottom of this thread's stack region
	sp      uint32 // current stack pointer (grows down)

	// tel copies M.tel, saving a pointer chase per access. Kept as the last
	// field so the hot fields above sit at the same offsets as before
	// telemetry existed.
	tel *probes

	// cancel copies M.Cfg.Cancel (same rationale and placement as tel).
	cancel *atomic.Bool

	// probed counts this thread's scalar hierarchy probes per perf.Level
	// since its last foldMetrics. Only kept when tel != nil.
	probed [perf.Fault + 1]uint64
}

// SpillBase returns a small per-thread region at the bottom of the stack
// used by policies to model register spills (e.g. bndmov slots).
func (t *Thread) SpillBase() uint32 { return t.stackLo }

// NewThread creates a thread with fresh private caches and its own stack.
func (m *Machine) NewThread() *Thread {
	lo := m.nextStack
	if lo+StackSize > StackTop {
		panic("machine: out of stack regions")
	}
	m.nextStack += StackSize
	// Stack regions are reserved unconditionally: threads are a fixed
	// hardware resource, not an allocation that can fail.
	m.AS.Reserve(StackSize)
	return &Thread{
		M:       m,
		ID:      int((lo - StackBase) / StackSize),
		l1:      cache.New(m.Cfg.L1),
		l2:      cache.New(m.Cfg.L2),
		tel:     m.tel,
		cancel:  m.Cfg.Cancel,
		stackLo: lo,
		sp:      lo + StackSize,
	}
}

// Instr retires n non-memory instructions.
func (t *Thread) Instr(n uint64) {
	t.C.Instr += n
	t.C.Cycles += n * t.M.Cfg.Cost.Instr
}

// Transition models one synchronous boundary crossing: inside an enclave an
// EENTER/EEXIT round trip (an ocall or ecall, with the TLB flush and cache
// refill the crossing causes folded into the constant), outside an enclave a
// plain syscall. The crossing itself retires no workload instructions and
// touches no simulated memory — callers charge any argument marshalling as
// ordinary accesses around it.
func (t *Thread) Transition() {
	if t.cancel != nil && t.cancel.Load() {
		panic(ErrCanceled)
	}
	t.C.Transitions++
	t.C.Cycles += t.M.costs.Transition
}

// accessLine runs one cache-line access through the hierarchy and charges
// its cost from the machine's precomputed table.
func (t *Thread) accessLine(line uint32) {
	if t.cancel != nil && t.cancel.Load() {
		panic(ErrCanceled)
	}
	// The previous most-recent line stays trackable only if its L1 set is
	// not the one this probe touches (see the lastLine/prevLine invariant).
	if prev := t.lastLine; prev != 0 && t.l1.SetOf(prev-1) != t.l1.SetOf(line) {
		t.prevLine = prev
	} else {
		t.prevLine = 0
	}
	t.lastLine = line + 1
	var lvl perf.Level
	switch {
	case t.l1.AccessLine(line):
		lvl = perf.L1
	case t.l2.AccessLine(line):
		lvl = perf.L2
	case t.M.L3.AccessLine(line):
		lvl = perf.L3
	default:
		lvl = perf.DRAM
		if epc := t.M.EPC; epc != nil {
			var fault, cold bool
			if t.tel != nil {
				fault, cold = t.tracedTouch(line)
			} else {
				fault, cold = epc.Touch(line << cache.LineShift)
			}
			if fault {
				if cold {
					// Compulsory fault: a fresh page is added (EAUG), far
					// cheaper than paging an evicted page back in.
					t.C.ColdFaults++
					t.C.Cycles += t.M.costs.ColdFault
				} else {
					lvl = perf.Fault
					t.C.PageFaults++
				}
			}
		}
	}
	t.C.Hits[lvl]++
	t.C.Cycles += t.M.costs.Level[lvl]
	if t.tel != nil {
		t.probed[lvl]++
	}
}

// tracedTouch is the traced variant of the scalar EPC probe: the same EPC
// transition, plus the eviction victim so the fault/eviction events carry
// page identity. Kept out of line so the untraced accessLine body stays at
// its pre-telemetry size.
//
//go:noinline
func (t *Thread) tracedTouch(line uint32) (fault, cold bool) {
	r := t.M.EPC.TouchInfo(line << cache.LineShift)
	t.tel.noteEPC(t.ID, t.C.Cycles, line>>(mem.PageShift-cache.LineShift), r)
	return r.Fault, r.Cold
}

// foldMetrics publishes the folded metrics (see probes) of what this
// thread did since it was last drained, and zeroes its probe counts. Each
// scalar probe is one access_cycles observation at its level's fixed
// cost. The rest come from t.C, so it runs before t.C is drained: every
// line that missed L2, scalar or batched, probed the LLC and is counted
// at L3 or beyond, the memory-level ones being its misses, and every warm
// EPC fault, scalar or batched, is one fault_service_cycles observation.
func (t *Thread) foldMetrics() {
	tel := t.tel
	if tel == nil {
		return
	}
	cost := &t.M.costs.Level
	for lvl, n := range t.probed {
		tel.accessCycles.ObserveN(cost[lvl], n)
	}
	t.probed = [perf.Fault + 1]uint64{}
	memLines := t.C.LLCMisses()
	tel.llcAccesses.Add(t.C.Hits[perf.L3] + memLines)
	tel.llcMisses.Add(memLines)
	tel.faultCycles.ObserveN(cost[perf.Fault], t.C.PageFaults)
	tel.transitions.Add(t.C.Transitions)
}

// access accounts one scalar access of the given size at addr.
func (t *Thread) access(addr uint32, size uint8, write bool) {
	if write {
		t.C.Stores++
	} else {
		t.C.Loads++
	}
	line := addr >> cache.LineShift
	last := (addr + uint32(size) - 1) >> cache.LineShift
	if line == last {
		if line+1 == t.lastLine {
			// Same line as this thread's previous access: a guaranteed L1
			// hit (private L1, untouched in between), charged without
			// re-probing.
			t.C.Hits[perf.L1]++
			t.C.Cycles += t.M.costs.Level[perf.L1]
			return
		}
		if line+1 == t.prevLine {
			// The line before that, in a different L1 set: also still
			// resident and rank-order-safe; it becomes most recent again.
			t.prevLine = t.lastLine
			t.lastLine = line + 1
			t.C.Hits[perf.L1]++
			t.C.Cycles += t.M.costs.Level[perf.L1]
			return
		}
	}
	t.accessLine(line)
	if last != line {
		t.accessLine(last)
	}
}

// ChargeSameLine charges k extra scalar accesses to the line of this
// thread's most recent access. Such accesses are guaranteed L1 hits (the
// private L1 holds the line it just filled), so bulk operations that read or
// write a line byte-by-byte in the scalar model — string scans, overlay
// transfers — account the follow-up bytes in one step. It must only be
// called immediately after an access to the same line.
func (t *Thread) ChargeSameLine(k uint64, write bool) {
	if k == 0 {
		return
	}
	if write {
		t.C.Stores += k
	} else {
		t.C.Loads += k
	}
	t.C.Hits[perf.L1] += k
	t.C.Cycles += k * t.M.costs.Level[perf.L1]
}

// Load performs an accounted scalar load.
func (t *Thread) Load(addr uint32, size uint8) uint64 {
	t.access(addr, size, false)
	return t.M.AS.Load(addr, size)
}

// Store performs an accounted scalar store.
func (t *Thread) Store(addr uint32, size uint8, v uint64) {
	t.access(addr, size, true)
	t.M.AS.Store(addr, size, v)
}

// Touch accounts accesses to the n bytes starting at addr at cache-line
// granularity without transferring data: one load or store event per line.
// Bulk operations (memcpy, shadow poisoning) combine Touch with raw
// address-space transfers.
func (t *Thread) Touch(addr uint32, n uint32, write bool) {
	if n == 0 {
		return
	}
	first := addr >> cache.LineShift
	last := (addr + n - 1) >> cache.LineShift
	t.accessRange(first, last, write)
}

// batchThreshold is the line count above which Touch switches from the
// scalar per-line walk to the batched level-by-level pipeline. Short ranges
// (a scalar access, a tagged-pointer metadata word) are cheaper without the
// batch bookkeeping.
const batchThreshold = 4

// accessRange pushes the inclusive line range [first, last] through the
// memory hierarchy and charges one load or store event per line.
//
// Lines walk the hierarchy level by level: all lines probe L1 (misses spill
// to a buffer), the L1 misses probe L2, the L2 misses probe the LLC, and the
// pages of the LLC misses — deduplicated, so a bulk operation faults at most
// once per page — probe the EPC. Per-level counts are then charged in one
// Counters update.
//
// This produces exactly the counters and cache/EPC state of the per-line
// walk (each cache sees the same access sequence — every level receives the
// ascending subsequence of lines that missed the previous level), which the
// equivalence tests in access_equiv_test.go lock in.
func (t *Thread) accessRange(first, last uint32, write bool) {
	nLines := uint64(last - first + 1)
	if nLines <= batchThreshold {
		if write {
			t.C.Stores += nLines
		} else {
			t.C.Loads += nLines
		}
		if first == last {
			// Same-line fast paths, as in scalar access.
			if first+1 == t.lastLine {
				t.C.Hits[perf.L1]++
				t.C.Cycles += t.M.costs.Level[perf.L1]
				return
			}
			if first+1 == t.prevLine {
				t.prevLine = t.lastLine
				t.lastLine = first + 1
				t.C.Hits[perf.L1]++
				t.C.Cycles += t.M.costs.Level[perf.L1]
				return
			}
		}
		for line := first; ; line++ {
			t.accessLine(line)
			if line == last {
				break
			}
		}
		return
	}

	if t.cancel != nil && t.cancel.Load() {
		panic(ErrCanceled)
	}
	var b perf.Batch
	if write {
		b.Stores = nLines
	} else {
		b.Loads = nLines
	}
	missL1 := t.l1.AccessRange(first, last, t.missBuf[0][:0])
	b.Hits[perf.L1] = nLines - uint64(len(missL1))
	if len(missL1) > 0 {
		missL2 := t.l2.AccessLines(missL1, t.missBuf[1][:0])
		b.Hits[perf.L2] = uint64(len(missL1) - len(missL2))
		if len(missL2) > 0 {
			missL3 := t.M.L3.AccessLines(missL2, t.missBuf[2][:0])
			b.Hits[perf.L3] = uint64(len(missL2) - len(missL3))
			if n := uint64(len(missL3)); n > 0 {
				b.Hits[perf.DRAM] = n
				if epc := t.M.EPC; epc != nil {
					// Dedupe the (ascending) missed lines to pages: the EPC
					// is probed once per page, exactly one line per faulting
					// page pays the fault level.
					const lineToPage = mem.PageShift - cache.LineShift
					pages := t.missBuf[3][:0]
					prev := missL3[0]>>lineToPage + 1 // != any page number
					for _, line := range missL3 {
						if pn := line >> lineToPage; pn != prev {
							pages = append(pages, pn)
							prev = pn
						}
					}
					var warm, cold uint64
					if tel := t.tel; tel != nil && tel.tracer != nil {
						// Traced probe: identical EPC transitions and
						// counts, with a per-fault callback carrying page
						// identity for the event stream.
						ts, tid := t.C.Cycles, t.ID
						warm, cold = epc.TouchPagesFunc(pages, func(pn uint32, r enclave.TouchResult) {
							tel.noteEPC(tid, ts, pn, r)
						})
					} else {
						warm, cold = epc.TouchPages(pages)
					}
					b.Hits[perf.DRAM] -= warm
					b.Hits[perf.Fault] = warm
					b.ColdFaults = cold
					t.missBuf[3] = pages
				}
			}
			t.missBuf[2] = missL3
		}
		t.missBuf[1] = missL2
	}
	t.missBuf[0] = missL1
	// The batch probed many sets; only its final line (the last L1 probe) is
	// still provably resident and rank-order-safe.
	t.lastLine = last + 1
	t.prevLine = 0
	if tel := t.tel; tel != nil {
		before := t.C.Cycles
		t.C.Charge(&b, &t.M.costs)
		tel.batchLines.Observe(nLines)
		tel.batchCycles.Observe(t.C.Cycles - before)
		if memLines := b.Hits[perf.DRAM] + b.Hits[perf.Fault]; memLines >= MEEBurstLines && t.M.EPC != nil {
			tel.tracer.Emit(telemetry.Event{Ts: t.C.Cycles, Tid: int32(t.ID), Kind: telemetry.EvMEEBurst,
				Arg0: memLines, Arg1: nLines})
		}
		return
	}
	t.C.Charge(&b, &t.M.costs)
}

// StackPointer returns the current stack pointer.
func (t *Thread) StackPointer() uint32 { return t.sp }

// PushFrame opens a stack frame, returning a token for PopFrame.
func (t *Thread) PushFrame() uint32 { return t.sp }

// PopFrame closes a stack frame opened by PushFrame.
func (t *Thread) PopFrame(token uint32) { t.sp = token }

// StackAlloc allocates size bytes (8-byte aligned) on this thread's stack.
// It panics on stack overflow, as real hardware would fault.
func (t *Thread) StackAlloc(size uint32) uint32 {
	size = (size + 7) &^ 7
	if t.sp-size < t.stackLo || size > t.sp {
		panic(fmt.Sprintf("machine: thread %d stack overflow", t.ID))
	}
	t.sp -= size
	return t.sp
}

// Parallel runs n workers on the machine's worker-thread pool (hardware
// threads are a fixed resource; repeated parallel phases reuse them, keeping
// their caches warm and their stacks reserved once). The calling thread is
// charged the critical path (the maximum of the workers' cycles), and all
// worker events are merged into the machine totals. Worker panics are
// re-raised on the caller after all workers finish, so that a bounds
// violation in any worker fails the whole parallel section deterministically.
//
// Workers execute in worker order, not as real goroutines: simulated
// parallelism lives entirely in the cycle accounting (critical path = max of
// the workers), while the order in which workers touch the shared LLC and
// EPC is fixed so that every counter of a run is bit-identical across
// repetitions and host scheduling. Host parallelism is exploited one level
// up instead, across independent experiment cells (internal/bench.Engine),
// where machines share no state at all.
func (m *Machine) Parallel(caller *Thread, n int, body func(w *Thread, i int)) {
	for len(m.workers) < n {
		m.workers = append(m.workers, m.NewThread())
	}
	workers := m.workers[:n]

	if tel := m.tel; tel != nil {
		tel.tracer.Emit(telemetry.Event{Ts: caller.C.Cycles, Tid: int32(caller.ID),
			Kind: telemetry.EvPhaseBegin, Name: "parallel", Arg0: uint64(n)})
	}
	panics := make([]any, n)
	for i := 0; i < n; i++ {
		func(i int) {
			defer func() { panics[i] = recover() }()
			body(workers[i], i)
		}(i)
	}
	var maxCycles uint64
	for _, w := range workers {
		maxCycles = max(maxCycles, w.C.Cycles)
		m.totals.Add(&w.C)
		w.foldMetrics()
		w.C = perf.Counters{} // drained into totals; the pool thread is reused
	}
	caller.C.Cycles += maxCycles
	if tel := m.tel; tel != nil {
		tel.tracer.Emit(telemetry.Event{Ts: caller.C.Cycles, Tid: int32(caller.ID),
			Kind: telemetry.EvPhaseEnd, Name: "parallel", Arg0: uint64(n)})
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Finish folds the main thread's counters into the totals and returns the
// final aggregate. Elapsed simulated time is the main thread's cycle count
// (parallel phases already contributed their critical path to it). It also
// publishes the main thread's folded metrics (see Config.Tel), so it is
// called once per run, after the run has returned or unwound.
func (m *Machine) Finish(main *Thread) perf.Counters {
	m.totals.Add(&main.C)
	main.foldMetrics()
	return m.totals
}

// Atomically runs fn as one simulated atomic read-modify-write, charging t
// the lock-prefix penalty. Threads run in turn, so no other thread's
// access can land inside fn. Simulated atomic operations (checked per
// §3.2, like any load or store) are built on it.
func (m *Machine) Atomically(t *Thread, fn func()) {
	t.Instr(12) // lock prefix + fence cost
	fn()
}

// PageFaults returns total EPC page faults (0 outside an enclave).
func (m *Machine) PageFaults() uint64 {
	if m.EPC == nil {
		return 0
	}
	return m.EPC.Faults()
}
