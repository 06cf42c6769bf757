package bench

import (
	"bytes"
	"context"
	"testing"
	"time"

	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

// TestEngineCancelMidCell: cancelling the engine's context while a cell is
// simulating aborts it promptly — the job-queue requirement that a
// cancelled sgxd job stops burning CPU — and the aborted cell is reported
// Canceled and never cached.
func TestEngineCancelMidCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := NewEngine(1)
	e.BindContext(ctx)

	done := make(chan Result, 1)
	start := time.Now()
	go func() {
		// A cell that takes many seconds uncancelled (the XL working-set
		// sweep's largest point).
		done <- e.Run(Spec{Workload: "kmeans", Policy: "sgxbounds", Size: workloads.XL})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if !r.Outcome.Canceled {
			// The cell may legitimately have finished before the cancel
			// landed, but at 100ms that would itself be suspicious.
			t.Fatalf("outcome = %v, want canceled (cell finished in %v?)", r.Outcome, time.Since(start))
		}
		if !r.Outcome.Crashed() {
			t.Error("canceled outcome must count as crashed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cell did not abort within 10s of cancellation")
	}
	if hits, runs := e.CacheStats(); hits != 0 {
		t.Errorf("canceled cell produced a cache hit (hits=%d runs=%d)", hits, runs)
	}

	// The canceled cell must not have been cached: asking again is no hit
	// (and, the engine being cancelled, no run either).
	if r := e.Run(Spec{Workload: "kmeans", Policy: "sgxbounds", Size: workloads.XL}); !r.Outcome.Canceled {
		t.Errorf("second request outcome = %v, want canceled", r.Outcome)
	}
	if hits, runs := e.CacheStats(); hits != 0 || runs != 1 {
		t.Errorf("after re-request: hits=%d runs=%d, want 0/1 (canceled result was cached?)", hits, runs)
	}
}

// TestEngineCancelSkipsQueuedCells: with the context already cancelled,
// every entry point returns a Canceled result without simulating anything,
// attaching a telemetry profile, or leaving cells on the progress total.
func TestEngineCancelSkipsQueuedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(2)
	e.BindContext(ctx)
	e.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true})

	start := time.Now()
	r := e.Run(Spec{Workload: "kmeans", Policy: "sgxbounds", Size: workloads.XL})
	if !r.Outcome.Canceled {
		t.Errorf("Run outcome = %v, want canceled", r.Outcome)
	}
	rows := e.RunAll([]Spec{
		{Workload: "kmeans", Policy: "sgx", Size: workloads.XL},
		{Workload: "matrixmul", Policy: "asan", Size: workloads.XL},
	})
	for i, r := range rows {
		if !r.Outcome.Canceled {
			t.Errorf("RunAll[%d] outcome = %v, want canceled", i, r.Outcome)
		}
	}
	if sp := e.RunSpeedtest("sgxbounds", 64000); !sp.Outcome.Canceled {
		t.Errorf("RunSpeedtest outcome = %v, want canceled", sp.Outcome)
	}
	if ar := e.MeasureApp("memcached", "sgxbounds", 2000); !ar.Outcome.Canceled {
		t.Errorf("MeasureApp outcome = %v, want canceled", ar.Outcome)
	}
	var table bytes.Buffer
	e.Table4(&table)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled entry points took %v, want near-instant", elapsed)
	}
	if _, runs := e.CacheStats(); runs != 0 {
		t.Errorf("pre-cancelled engine executed %d cells", runs)
	}
	if n := e.Telemetry.Len(); n != 0 {
		t.Errorf("pre-cancelled engine attached %d telemetry profiles", n)
	}
	if e.total != 0 {
		t.Errorf("progress total = %d, want 0 (skipped cells must be withdrawn)", e.total)
	}
}

// TestEngineCancelExperiment: a whole experiment driven through the
// registry aborts promptly mid-run.
func TestEngineCancelExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment slice")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := NewEngine(2)
	e.BindContext(ctx)
	done := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		done <- RunExperiment(e, "fig8", &buf, RunOpts{})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunExperiment: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("experiment did not abort within 15s of cancellation")
	}
	if !e.Canceled() {
		t.Error("engine should report Canceled")
	}
}

// TestUncancelledEngineUnchanged: binding a context that is never cancelled
// leaves results bit-identical to an unbound engine — the cancel hook may
// not perturb the simulation.
func TestUncancelledEngineUnchanged(t *testing.T) {
	spec := Spec{Workload: "histogram", Policy: "sgxbounds", Size: workloads.XS}
	plain := NewEngine(1).Run(spec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := NewEngine(1)
	e.BindContext(ctx)
	bound := e.Run(spec)
	if plain.Totals != bound.Totals || plain.Cycles != bound.Cycles || plain.Digest != bound.Digest {
		t.Errorf("bound-context run differs from plain run:\n plain=%+v\n bound=%+v", plain, bound)
	}
}
