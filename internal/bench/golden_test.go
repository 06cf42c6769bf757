package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sgxbounds/internal/machine"
	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update. The goldens pin the exact text the bench formatters
// emit on fixed small grids, so a formatter refactor (or an accidental
// change to the simulation) cannot silently change the paper's reported
// shapes. Everything feeding these tables is deterministic: the workloads
// seed their own RNGs and machine.Parallel interleaves simulated threads in
// a fixed order.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/bench -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output changed (rerun with -update if intended)\n--- want ---\n%s--- got ---\n%s",
			path, want, got)
	}
}

// TestGoldenFig1 pins the Figure 1 table text on a reduced item sweep.
func TestGoldenFig1(t *testing.T) {
	var buf bytes.Buffer
	NewEngine(4).Fig1Sweep(&buf, []uint32{4000, 8000})
	checkGolden(t, "fig1", buf.Bytes())
}

// TestGoldenFig7 pins the Figure 7 experiment shape (SuiteComparison) on a
// fixed XS grid over a pointer-light, a pointer-heavy and an
// allocation-churning workload.
func TestGoldenFig7(t *testing.T) {
	var buf bytes.Buffer
	ws := mustWorkloads(t, "histogram", "wordcount", "swaptions")
	NewEngine(4).SuiteComparison(&buf, "Figure 7 (golden XS grid)", ws, workloads.XS, 2,
		machine.DefaultConfig())
	checkGolden(t, "fig7", buf.Bytes())
}

// TestGoldenFig13 pins the Figure 13 throughput/latency and memory tables
// at a reduced request count.
func TestGoldenFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("app measurements")
	}
	var buf bytes.Buffer
	NewEngine(4).Fig13(&buf, 200)
	checkGolden(t, "fig13", buf.Bytes())
}

// TestGoldenTable4 pins the full RIPE table, including the per-attack
// detail — the detect/miss asymmetry of every mechanism.
func TestGoldenTable4(t *testing.T) {
	var buf bytes.Buffer
	NewEngine(4).Table4(&buf)
	checkGolden(t, "table4", buf.Bytes())
}

// TestGoldenProfiles pins the telemetry profile of one cell of every kind
// the engine runs, so the shared fresh-machine skeleton cannot drift: grid,
// Figure 1 and Figure 13 cells publish the main thread's critical path as
// run.cycles, and RIPE cells attach no profile at all.
func TestGoldenProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("app measurements")
	}
	e := NewEngine(4)
	e.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true})
	e.Fig1Sweep(io.Discard, []uint32{4000})
	e.Fig13(io.Discard, 200)
	e.Table4(io.Discard)
	e.Run(Spec{Workload: "histogram", Policy: "sgxbounds", Size: workloads.XS, Threads: 2})
	var buf bytes.Buffer
	if err := telemetry.Dump(e.Telemetry.Profiles()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "profiles", buf.Bytes())
}
