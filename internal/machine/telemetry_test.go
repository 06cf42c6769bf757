package machine

// Locks in the telemetry side-channel contract: attaching a profile to a
// machine changes nothing about the simulation — counters, cache state and
// EPC state are bit-identical with telemetry on and off — while the captured
// events and metrics reconcile exactly with the simulated counters. The
// per-access metrics are folded in at Parallel drain and Finish, so a test
// calls Finish before it reads them.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"sgxbounds/internal/cache"
	"sgxbounds/internal/mem"
	"sgxbounds/internal/perf"
	"sgxbounds/internal/telemetry"
)

// randomOps builds a mixed scalar/bulk trace over a window several times the
// scaled EPC, with the same locality bias as the equivalence tests.
func randomOps(seed int64, n int) []op {
	const window = 128 * mem.PageSize
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: uint8(rng.Intn(4)), addr: 0x1000 + uint32(rng.Intn(window))}
		switch {
		case o.kind < 2:
			o.size = scalarSize(uint8(rng.Intn(4)))
		case rng.Intn(4) == 0:
			o.n = uint32(rng.Intn(8 * mem.PageSize))
		default:
			o.n = uint32(rng.Intn(6 * cache.LineSize))
		}
		if i >= 2 && rng.Intn(3) == 0 {
			o.addr = ops[i-1-rng.Intn(2)].addr
		}
		ops[i] = o
	}
	return ops
}

func replay(m *Machine, ops []op) *Thread {
	th := m.NewThread()
	play(th, ops)
	return th
}

// play runs ops on th.
func play(th *Thread, ops []op) {
	for i, o := range ops {
		switch o.kind & 3 {
		case 0:
			th.Load(o.addr, o.size)
		case 1:
			th.Store(o.addr, o.size, uint64(i))
		case 2:
			th.Touch(o.addr, o.n, false)
		case 3:
			th.Touch(o.addr, o.n, true)
		}
	}
}

// TestTelemetryDoesNotPerturbSimulation replays identical traces on a bare
// machine and on one with full telemetry (metrics + tracing) attached and
// requires bit-identical counters and EPC state.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, enclaveOn := range []bool{true, false} {
			ops := randomOps(seed, 4000)

			bare := New(equivConfig(enclaveOn))
			bareTh := replay(bare, ops)

			cfg := equivConfig(enclaveOn)
			cfg.Tel = telemetry.NewProfile("test", telemetry.Options{
				Metrics: true, Events: true, EventCap: telemetry.DefaultTraceCap,
			})
			traced := New(cfg)
			tracedTh := replay(traced, ops)

			if bareTh.C != tracedTh.C {
				t.Fatalf("seed %d enclave=%v: counters diverge\n bare:   %+v\n traced: %+v",
					seed, enclaveOn, bareTh.C, tracedTh.C)
			}
			if enclaveOn {
				if bf, tf := bare.EPC.Faults(), traced.EPC.Faults(); bf != tf {
					t.Fatalf("seed %d: EPC faults diverge: bare %d traced %d", seed, bf, tf)
				}
				if be, te := bare.EPC.Evictions(), traced.EPC.Evictions(); be != te {
					t.Fatalf("seed %d: EPC evictions diverge: bare %d traced %d", seed, be, te)
				}
				if br, tr := bare.EPC.ResidentPages(), traced.EPC.ResidentPages(); br != tr {
					t.Fatalf("seed %d: resident pages diverge: bare %d traced %d", seed, br, tr)
				}
			}
		}
	}
}

// TestTelemetryReconcilesWithCounters checks that the captured metrics and
// events agree exactly with the simulation's own counters: the epc.* counters
// match the EPC's, and (when the ring did not overflow) the event stream
// contains one EvEPCFault per fault and one EvEviction per eviction.
func TestTelemetryReconcilesWithCounters(t *testing.T) {
	ops := randomOps(7, 4000)
	cfg := equivConfig(true)
	cfg.Tel = telemetry.NewProfile("test", telemetry.Options{
		Metrics: true, Events: true, EventCap: 1 << 20,
	})
	m := New(cfg)
	th := replay(m, ops)
	m.Finish(th) // publishes the thread's folded metrics

	snap := cfg.Tel.Metrics.Snapshot()
	if got, want := snap.Counters["epc.faults"], m.EPC.Faults(); got != want {
		t.Errorf("epc.faults counter %d, EPC reports %d", got, want)
	}
	if got, want := snap.Counters["epc.evictions"], m.EPC.Evictions(); got != want {
		t.Errorf("epc.evictions counter %d, EPC reports %d", got, want)
	}
	if got, want := snap.Counters["epc.cold_faults"], th.C.ColdFaults; got != want {
		t.Errorf("epc.cold_faults counter %d, thread counted %d", got, want)
	}
	if got, want := snap.Counters["epc.faults"], th.C.ColdFaults+th.C.PageFaults; got != want {
		t.Errorf("epc.faults counter %d, thread counted %d cold + %d warm", got, th.C.ColdFaults, th.C.PageFaults)
	}

	tr := cfg.Tel.Trace
	if tr.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped) despite generous cap", tr.Dropped())
	}
	var faults, colds, evictions uint64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case telemetry.EvEPCFault:
			faults++
			if ev.Arg1 == 1 {
				colds++
			}
		case telemetry.EvEviction:
			evictions++
		}
	}
	if faults != m.EPC.Faults() {
		t.Errorf("event stream has %d faults, EPC reports %d", faults, m.EPC.Faults())
	}
	if colds != th.C.ColdFaults {
		t.Errorf("event stream has %d cold faults, thread counted %d", colds, th.C.ColdFaults)
	}
	if evictions != m.EPC.Evictions() {
		t.Errorf("event stream has %d evictions, EPC reports %d", evictions, m.EPC.Evictions())
	}

	// The histograms cover every batched access and every warm fault.
	if h := snap.Histograms["machine.fault_service_cycles"]; h.Count != th.C.PageFaults {
		t.Errorf("fault_service_cycles has %d observations, thread counted %d warm faults",
			h.Count, th.C.PageFaults)
	}
}

// TestMetricsIndependentOfEvents replays identical traces on a metrics-only
// machine and on a metrics+events one and requires identical metrics after
// Finish: the tracer adds events and nothing else, and every warm fault,
// scalar or batched, reaches fault_service_cycles either way.
func TestMetricsIndependentOfEvents(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, enclaveOn := range []bool{true, false} {
			ops := randomOps(seed, 4000)
			var snaps [2]telemetry.MetricsSnapshot
			for i, events := range []bool{false, true} {
				cfg := equivConfig(enclaveOn)
				cfg.Tel = telemetry.NewProfile("test", telemetry.Options{
					Metrics: true, Events: events, EventCap: telemetry.DefaultTraceCap,
				})
				m := New(cfg)
				m.Finish(replay(m, ops))
				snaps[i] = cfg.Tel.Metrics.Snapshot()
			}
			for _, d := range metricsDiff(snaps[0], snaps[1]) {
				t.Errorf("seed %d enclave=%v: metrics only vs with events: %s", seed, enclaveOn, d)
			}
		}
	}
}

// TestFoldSurvivesUnwind runs a cell that unwinds twice, once from a
// Parallel phase whose worker 1 panics partway and once from a cancel on
// the main thread, and compares its metrics after Finish with those of a
// run that made the same accesses and stopped cleanly. The metrics must
// also reconcile with the terminal counters, so neither the panicking
// worker's counts nor the main thread's may be lost.
func TestFoldSurvivesUnwind(t *testing.T) {
	ops := randomOps(11, 4000)
	run := func(unwind bool) (telemetry.MetricsSnapshot, perf.Counters) {
		cfg := equivConfig(true)
		cfg.Tel = telemetry.NewProfile("test", telemetry.Options{Metrics: true})
		cfg.Cancel = new(atomic.Bool)
		m := New(cfg)
		main := m.NewThread()
		play(main, ops[:500])
		main.Transition()
		func() {
			defer func() {
				if p := recover(); unwind && p == nil {
					t.Fatal("worker panic not propagated")
				}
			}()
			m.Parallel(main, 3, func(w *Thread, i int) {
				w.Transition()
				part := ops[500+1000*i : 1500+1000*i]
				if i == 1 {
					play(w, part[:400])
					if unwind {
						panic("worker 1 fault")
					}
					return
				}
				play(w, part)
			})
		}()
		play(main, ops[3500:])
		if unwind {
			cfg.Cancel.Store(true)
			func() {
				defer func() {
					if p := recover(); p != ErrCanceled {
						t.Fatalf("canceled main thread panicked with %v, want ErrCanceled", p)
					}
				}()
				main.Touch(0x1000, mem.PageSize, false)
			}()
		}
		totals := m.Finish(main)
		return cfg.Tel.Metrics.Snapshot(), totals
	}
	clean, cleanTotals := run(false)
	unwound, totals := run(true)
	if totals != cleanTotals {
		t.Fatalf("unwound run's counters %+v, clean run's %+v", totals, cleanTotals)
	}
	for _, d := range metricsDiff(clean, unwound) {
		t.Errorf("clean vs unwound: %s", d)
	}
	for name, want := range map[string]uint64{
		"llc.accesses":        totals.Hits[perf.L3] + totals.LLCMisses(),
		"llc.misses":          totals.LLCMisses(),
		"machine.transitions": totals.Transitions,
	} {
		if got := unwound.Counters[name]; got != want {
			t.Errorf("%s = %d, terminal counters say %d", name, got, want)
		}
	}
	if got := unwound.Histograms["machine.fault_service_cycles"].Count; got != totals.PageFaults || got == 0 {
		t.Errorf("fault_service_cycles has %d observations, terminal counters say %d warm faults",
			got, totals.PageFaults)
	}
}

// metricsDiff lists the metrics that differ between two snapshots.
func metricsDiff(a, b telemetry.MetricsSnapshot) []string {
	var diffs []string
	for _, name := range a.CounterNames() {
		if av, bv := a.Counters[name], b.Counters[name]; av != bv {
			diffs = append(diffs, fmt.Sprintf("counter %s: %d vs %d", name, av, bv))
		}
	}
	for _, name := range a.HistogramNames() {
		if ah, bh := a.Histograms[name], b.Histograms[name]; ah != bh {
			diffs = append(diffs, fmt.Sprintf("histogram %s: count %d sum %d vs count %d sum %d",
				name, ah.Count, ah.Sum, bh.Count, bh.Sum))
		}
	}
	if len(a.Counters) != len(b.Counters) || len(a.Histograms) != len(b.Histograms) {
		diffs = append(diffs, fmt.Sprintf("metric sets differ: %v %v vs %v %v",
			a.CounterNames(), a.HistogramNames(), b.CounterNames(), b.HistogramNames()))
	}
	return diffs
}

// TestParallelPhaseEvents checks that Parallel brackets its workers with
// phase events carrying the worker count.
func TestParallelPhaseEvents(t *testing.T) {
	cfg := equivConfig(true)
	cfg.Tel = telemetry.NewProfile("test", telemetry.Options{Events: true, EventCap: 1 << 10})
	m := New(cfg)
	main := m.NewThread()
	m.Parallel(main, 3, func(w *Thread, i int) {
		w.Touch(uint32(0x10000*(i+1)), 4*mem.PageSize, true)
	})

	var begin, end *telemetry.Event
	for _, ev := range cfg.Tel.Trace.Events() {
		ev := ev
		switch ev.Kind {
		case telemetry.EvPhaseBegin:
			begin = &ev
		case telemetry.EvPhaseEnd:
			end = &ev
		}
	}
	if begin == nil || end == nil {
		t.Fatal("missing parallel phase events")
	}
	if begin.Name != "parallel" || begin.Arg0 != 3 {
		t.Errorf("begin event %+v, want name=parallel arg0=3", begin)
	}
	if end.Ts < begin.Ts {
		t.Errorf("phase end at %d before begin at %d", end.Ts, begin.Ts)
	}
	if end.Ts != main.C.Cycles {
		t.Errorf("phase end at %d, caller finished at %d", end.Ts, main.C.Cycles)
	}
}
