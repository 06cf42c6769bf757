package stress

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

// stressExperiments are the registry names this package contributes.
var stressExperiments = []string{"epc-thrash", "transition-storm", "multitask", "ptrchase"}

// TestKernelsDeterministic runs every stress workload twice on fresh
// engines — serial and threaded — and demands identical results down to the
// digest: the workload contract that makes the store's byte-identity hold.
func TestKernelsDeterministic(t *testing.T) {
	for _, wl := range []string{"epc_thrash", "transition_storm", "multitask", "ptrchase"} {
		for _, threads := range []int{1, 2} {
			spec := bench.Spec{Workload: wl, Policy: "sgxbounds", Size: workloads.XS,
				Threads: threads, Config: stressConfig(0)}
			a := bench.NewEngine(1).Run(spec)
			b := bench.NewEngine(4).Run(spec)
			if a.Outcome.Crashed() {
				t.Fatalf("%s t%d crashed: %s", wl, threads, a.Outcome)
			}
			if a.Digest != b.Digest || a.Cycles != b.Cycles || a.Totals != b.Totals ||
				a.PeakReserved != b.PeakReserved {
				t.Errorf("%s t%d: reruns diverge (digest %x vs %x, cycles %d vs %d)",
					wl, threads, a.Digest, b.Digest, a.Cycles, b.Cycles)
			}
		}
	}
}

// TestMetricsOnlyProfilesReconcile runs cells the way an sgxd job does, on a
// metrics-only engine with two workers: an 8-thread XS grid cell and the
// epc-thrash sweep. Every profile's folded metrics must agree with its
// terminal run.* counters: llc.misses with run.llc_misses, and one
// fault_service_cycles observation per warm fault, batched ones included.
// A fold that loses a Parallel worker's probes fails here.
func TestMetricsOnlyProfilesReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("full epc-thrash sweep")
	}
	e := bench.NewEngine(2)
	e.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true})
	// wordcount because every one of its workers misses the LLC at XS; in
	// most XS cells only the main thread does, so a lost worker would
	// leave llc.misses unchanged.
	grid := e.Run(bench.Spec{Workload: "wordcount", Policy: "sgxbounds", Size: workloads.XS, Threads: 8})
	if grid.Totals.LLCMisses() == 0 {
		t.Fatal("the grid cell makes no LLC misses: nothing to reconcile")
	}
	EPCThrash(e, io.Discard, AllSizes, 0)

	profiles := e.Telemetry.Profiles()
	if want := 1 + len(AllSizes)*len(bench.PolicyNames); len(profiles) != want {
		t.Fatalf("captured %d profiles, want %d", len(profiles), want)
	}
	var warm uint64
	for _, p := range profiles {
		snap := p.Metrics.Snapshot()
		if got, want := snap.Counters["llc.misses"], snap.Counters["run.llc_misses"]; got != want {
			t.Errorf("%s: llc.misses %d, run.llc_misses %d", p.Label, got, want)
		}
		h, faults := snap.Histograms["machine.fault_service_cycles"], snap.Counters["run.page_faults"]
		if h.Count != faults {
			t.Errorf("%s: fault_service_cycles has %d observations, run.page_faults %d", p.Label, h.Count, faults)
		}
		warm += faults
	}
	if warm == 0 {
		t.Fatal("no cell made a warm fault: the fault-service check is vacuous")
	}
}

// TestSweepOutputParallelInvariant pins the engine-level contract: the
// printed stress tables are byte-identical for any engine worker count.
func TestSweepOutputParallelInvariant(t *testing.T) {
	sizes := []workloads.Size{workloads.XS}
	type sweep struct {
		name string
		run  func(e *bench.Engine, buf *bytes.Buffer)
	}
	for _, s := range []sweep{
		{"epc-thrash", func(e *bench.Engine, buf *bytes.Buffer) { EPCThrash(e, buf, sizes, 1<<20) }},
		{"transition-storm", func(e *bench.Engine, buf *bytes.Buffer) { TransitionStorm(e, buf, sizes) }},
		{"multitask", func(e *bench.Engine, buf *bytes.Buffer) { Multitask(e, buf, sizes) }},
		{"ptrchase", func(e *bench.Engine, buf *bytes.Buffer) { PtrChase(e, buf, sizes) }},
	} {
		var serial, fanned bytes.Buffer
		s.run(bench.NewEngine(1), &serial)
		s.run(bench.NewEngine(8), &fanned)
		if !bytes.Equal(serial.Bytes(), fanned.Bytes()) {
			t.Errorf("%s: output differs between -parallel 1 and 8\n--- serial ---\n%s--- parallel ---\n%s",
				s.name, serial.String(), fanned.String())
		}
	}
}

// TestExperimentsRegistered checks each kernel is a first-class registry
// entry and therefore part of the "all" sweep (non-custom entries are).
func TestExperimentsRegistered(t *testing.T) {
	for _, name := range stressExperiments {
		exp, ok := bench.LookupExperiment(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		if exp.Custom {
			t.Errorf("experiment %q is Custom — it would be excluded from `-experiment all`", name)
		}
		if (name == "epc-thrash") != exp.UsesEPC {
			t.Errorf("experiment %q UsesEPC = %v", name, exp.UsesEPC)
		}
	}
}

// TestJobRoundTrip submits each stress experiment through the job vocabulary:
// the digest must survive a JSON round trip and must equal the store key the
// scheduler computes for the equivalent SubmitRequest — the agreement that
// lets sgxd serve sgxbench's exact bytes.
func TestJobRoundTrip(t *testing.T) {
	for _, name := range stressExperiments {
		job := bench.Job{Experiment: name, EPCBytes: 2 << 20}
		if err := job.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(job.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		var back bench.Job
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.Digest() != job.Digest() {
			t.Errorf("%s: digest changed across JSON round trip", name)
		}
		req := sched.SubmitRequest{Experiment: name, EPCBytes: 2 << 20}
		if req.StoreKey() != job.Digest() {
			t.Errorf("%s: scheduler store key %s != job digest %s", name, req.StoreKey(), job.Digest())
		}
	}
}

// TestEPCBytesIdentityScope pins which experiments EPCBytes identifies: it
// must change the digest of EPC-aware experiments and be canonicalised away
// everywhere else (a transition-storm result is the same result at any
// configured capacity).
func TestEPCBytesIdentityScope(t *testing.T) {
	for _, name := range stressExperiments {
		plain := bench.Job{Experiment: name}.Digest()
		swept := bench.Job{Experiment: name, EPCBytes: 2 << 20}.Digest()
		if name == "epc-thrash" {
			if plain == swept {
				t.Errorf("%s: EPCBytes did not change the digest", name)
			}
		} else if plain != swept {
			t.Errorf("%s: EPCBytes leaked into the digest of a non-EPC experiment", name)
		}
	}
}

// TestThrashWorkingSetCrossesCapacity checks the sweep's defining property:
// the size ladder spans from well under the EPC to a multiple of it.
func TestThrashWorkingSetCrossesCapacity(t *testing.T) {
	epc := effectiveEPC(0)
	lo := ThrashWorkingSet(epc, workloads.XS)
	hi := ThrashWorkingSet(epc, workloads.XL)
	if uint64(lo) >= epc {
		t.Errorf("XS working set %d does not fit the %d-byte EPC", lo, epc)
	}
	if uint64(hi) <= epc {
		t.Errorf("XL working set %d does not exceed the %d-byte EPC", hi, epc)
	}
}
