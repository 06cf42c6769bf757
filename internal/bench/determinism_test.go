package bench

import (
	"bytes"
	"io"
	"testing"

	"sgxbounds/internal/machine"
	"sgxbounds/internal/workloads"
)

// detSpecs is a small grid that exercises the properties determinism
// depends on: multithreaded workloads (fixed worker interleaving on the
// shared LLC/EPC), every headline policy, and a crashing configuration.
// The baggy cell adds the buddy allocator, so under -race the engine test
// below drives both heap allocators and five policies on concurrent
// machines.
var detSpecs = []Spec{
	{Workload: "kmeans", Policy: "sgxbounds", Size: workloads.S, Threads: 4},
	{Workload: "histogram", Policy: "sgx", Size: workloads.XS, Threads: 2},
	{Workload: "wordcount", Policy: "mpx", Size: workloads.XS, Threads: 1},
	{Workload: "swaptions", Policy: "asan", Size: workloads.XS, Threads: 1},
	{Workload: "wordcount", Policy: "baggy", Size: workloads.XS, Threads: 2},
}

// TestRunDeterministic: the same Spec run twice yields bit-identical
// counters, cycles, digest and memory metrics — the guardrail the parallel
// engine's byte-identical-output guarantee is built on. This covers
// Threads > 1, where simulated workers share the LLC and EPC and
// machine.Parallel must interleave them in a fixed order.
func TestRunDeterministic(t *testing.T) {
	for _, spec := range detSpecs {
		a, b := Run(spec), Run(spec)
		if a.Totals != b.Totals {
			t.Errorf("%s/%s threads=%d: counters differ:\n a=%+v\n b=%+v",
				spec.Workload, spec.Policy, spec.Threads, a.Totals, b.Totals)
		}
		if a.Cycles != b.Cycles || a.Digest != b.Digest ||
			a.PeakReserved != b.PeakReserved || a.PageFaults != b.PageFaults ||
			a.BoundsTables != b.BoundsTables {
			t.Errorf("%s/%s threads=%d: results differ: %+v vs %+v",
				spec.Workload, spec.Policy, spec.Threads, a, b)
		}
	}
}

// TestEngineMatchesSerialRun: every cell an engine returns — at any worker
// count, cached or not — is bit-identical to a direct serial Run. At 4 and
// 16 workers the cells run concurrently, each on its own machine; under
// -race (make race) this is the guard for the single-owner machine
// contract (DESIGN.md §5).
func TestEngineMatchesSerialRun(t *testing.T) {
	want := make([]Result, len(detSpecs))
	for i, spec := range detSpecs {
		want[i] = Run(spec)
	}
	for _, workers := range []int{1, 4, 16} {
		e := NewEngine(workers)
		// Twice: the second pass must be all cache hits and still identical.
		for pass := 0; pass < 2; pass++ {
			got := e.RunAll(detSpecs)
			for i := range detSpecs {
				if got[i].Totals != want[i].Totals || got[i].Cycles != want[i].Cycles ||
					got[i].Digest != want[i].Digest {
					t.Errorf("workers=%d pass=%d cell %d: engine result differs from serial Run",
						workers, pass, i)
				}
			}
		}
		hits, runs := e.CacheStats()
		if runs != len(detSpecs) || hits != len(detSpecs) {
			t.Errorf("workers=%d: cache stats runs=%d hits=%d, want %d/%d",
				workers, runs, hits, len(detSpecs), len(detSpecs))
		}
	}
}

// TestEngineOutputByteIdentical: the formatted table output of a grid
// experiment is byte-identical for every worker count (the acceptance
// criterion of the parallel engine).
func TestEngineOutputByteIdentical(t *testing.T) {
	ws := make([]workloads.Workload, 0, 2)
	for _, name := range []string{"histogram", "kmeans"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		var buf bytes.Buffer
		NewEngine(workers).SuiteComparison(&buf, "determinism", ws, workloads.XS, 2, machine.DefaultConfig())
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("workers=%d: output differs from workers=1:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, ref, workers, buf.Bytes())
		}
	}
}

// TestEngineCacheSharesCellsAcrossFigures: a cell that two figures both
// need runs once. Figure 10's "all" ablation variant is the same canonical
// cell as the default sgxbounds configuration, and its baseline is the
// plain sgx cell.
func TestEngineCacheSharesCellsAcrossFigures(t *testing.T) {
	e := NewEngine(1)
	spec := Spec{Workload: "histogram", Policy: "sgxbounds", Size: workloads.XS}
	e.Run(spec)
	_, runs := e.CacheStats()
	if runs != 1 {
		t.Fatalf("first run: runs=%d", runs)
	}
	// Same cell spelled the Figure 10 way: explicit AllOptimizations.
	e.Run(Spec{Workload: "histogram", Policy: "sgxbounds", Size: workloads.XS,
		CoreOpts: OptVariants[3].Opts, CoreOptsSet: true})
	hits, runs := e.CacheStats()
	if runs != 1 || hits != 1 {
		t.Errorf("explicit AllOptimizations spec missed the cache: runs=%d hits=%d", runs, hits)
	}
	// A genuinely different configuration must not hit.
	e.Run(Spec{Workload: "histogram", Policy: "sgxbounds", Size: workloads.XS,
		CoreOpts: OptVariants[0].Opts, CoreOptsSet: true})
	if hits, runs = e.CacheStats(); runs != 2 || hits != 1 {
		t.Errorf("distinct options wrongly cached: runs=%d hits=%d", runs, hits)
	}
}

// TestEngineProgressReporting: the progress reporter sees every cell and
// never contaminates the result writer.
func TestEngineProgressReporting(t *testing.T) {
	var progress bytes.Buffer
	e := NewEngine(2)
	e.Progress = &progress
	var out bytes.Buffer
	e.RunGrid(&out, mustWorkloads(t, "histogram"), []string{"sgx", "sgxbounds"},
		workloads.XS, 1, machine.DefaultConfig())
	if progress.Len() == 0 {
		t.Error("no progress emitted")
	}
	for _, want := range []string{"cells", "cells/s", "sgxbounds="} {
		if !bytes.Contains(progress.Bytes(), []byte(want)) {
			t.Errorf("progress output missing %q: %s", want, progress.String())
		}
	}
	if bytes.Contains(out.Bytes(), []byte("cells/s")) {
		t.Error("progress lines leaked into the deterministic result writer")
	}
}

func mustWorkloads(t *testing.T, names ...string) []workloads.Workload {
	t.Helper()
	out := make([]workloads.Workload, 0, len(names))
	for _, n := range names {
		w, err := workloads.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// TestEngineSpeedtestAndAppCaches: the Figure 1 and Figure 13 cell caches
// return identical results without re-running.
func TestEngineSpeedtestAndAppCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("app measurements")
	}
	e := NewEngine(2)
	a := e.RunSpeedtest("sgxbounds", 4000)
	b := e.RunSpeedtest("sgxbounds", 4000)
	if a != b {
		t.Error("speedtest cache returned a different result")
	}
	x := e.MeasureApp("nginx", "sgxbounds", 100)
	y := e.MeasureApp("nginx", "sgxbounds", 100)
	if x != y {
		t.Error("app cache returned a different result")
	}
	hits, _ := e.CacheStats()
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

// TestFig9SharesGridWithFig7Shape: running the same engine over two figures
// with overlapping cells reuses them (the -experiment all win).
func TestFig9SharesGridWithFig7Shape(t *testing.T) {
	e := NewEngine(4)
	ws := mustWorkloads(t, "histogram", "kmeans")
	e.RunGrid(io.Discard, ws, []string{"sgx", "sgxbounds"}, workloads.XS, 2, machine.DefaultConfig())
	_, runs := e.CacheStats()
	if runs != 4 {
		t.Fatalf("first grid: runs=%d, want 4", runs)
	}
	// A second grid over a superset of policies reruns only the new cells.
	e.RunGrid(io.Discard, ws, []string{"sgx", "sgxbounds", "asan"}, workloads.XS, 2, machine.DefaultConfig())
	hits, runs := e.CacheStats()
	if runs != 6 {
		t.Errorf("second grid reran cached cells: runs=%d, want 6", runs)
	}
	if hits != 4 {
		t.Errorf("hits=%d, want 4", hits)
	}
}
