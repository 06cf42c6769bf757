package bench

import (
	"bytes"
	"strings"
	"testing"

	"sgxbounds/internal/machine"
	"sgxbounds/internal/workloads"
)

// TestSuiteComparisonSmoke runs the Figure 7/11 experiment shape on a tiny
// grid and checks the output and invariants.
func TestSuiteComparisonSmoke(t *testing.T) {
	var buf bytes.Buffer
	ws := []workloads.Workload{}
	for _, name := range []string{"histogram", "swaptions"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	grid := NewEngine(0).SuiteComparison(&buf, "smoke", ws, workloads.XS, 1, machine.DefaultConfig())
	out := buf.String()
	for _, want := range []string{"smoke: performance overhead", "histogram", "swaptions", "gmean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, w := range ws {
		row := grid[w.Name]
		base := row["sgx"]
		if base.Outcome.Crashed() {
			t.Fatalf("%s baseline crashed: %v", w.Name, base.Outcome)
		}
		for _, pol := range []string{"asan", "sgxbounds"} {
			r := row[pol]
			if r.Outcome.Crashed() {
				t.Errorf("%s under %s crashed: %v", w.Name, pol, r.Outcome)
			}
			if r.Digest != base.Digest {
				t.Errorf("%s under %s: digest mismatch", w.Name, pol)
			}
			if Overhead(r, base) < 0.5 {
				t.Errorf("%s under %s: implausible overhead", w.Name, pol)
			}
		}
	}
}

// TestTable4Smoke regenerates the RIPE table and asserts the headline
// counts in the rendered output.
func TestTable4Smoke(t *testing.T) {
	var buf bytes.Buffer
	out := NewEngine(0).Table4(&buf)
	if got := out["mpx"].Prevented; got != 2 {
		t.Errorf("mpx prevented = %d", got)
	}
	if got := out["sgxbounds"].Prevented; got != 8 {
		t.Errorf("sgxbounds prevented = %d", got)
	}
	rendered := buf.String()
	for _, want := range []string{"RIPE security benchmark", "2/16", "8/16", "in-struct"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

// TestMeasureAppSmoke runs the smallest case-study measurement per app.
func TestMeasureAppSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("app measurements")
	}
	for _, app := range []string{"memcached", "apache", "nginx"} {
		r := MeasureApp(app, "sgxbounds", 200)
		if r.Outcome.Crashed() {
			t.Fatalf("%s: %v", app, r.Outcome)
		}
		if r.ServiceCycles <= 0 || r.Throughput() <= 0 {
			t.Errorf("%s: empty measurement %+v", app, r)
		}
		if r.Latency(64) <= r.Latency(1) {
			t.Errorf("%s: latency not increasing with queueing", app)
		}
	}
}

// TestRunSpeedtestSmoke runs the smallest Figure 1 point for the two
// policies with opposite fates.
func TestRunSpeedtestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("speedtest")
	}
	ok := RunSpeedtest("sgxbounds", 4000)
	if ok.Outcome.Crashed() {
		t.Fatalf("sgxbounds speedtest crashed: %v", ok.Outcome)
	}
	if ok.PeakReserved == 0 || ok.Cycles == 0 {
		t.Error("speedtest measured nothing")
	}
}

// TestFig8WorkloadsRegistered: the sweep set must exist in the registry.
func TestFig8WorkloadsRegistered(t *testing.T) {
	for _, name := range Fig8Workloads {
		if _, err := workloads.Get(name); err != nil {
			t.Errorf("fig8 workload %q: %v", name, err)
		}
	}
	if len(OptVariants) != 4 {
		t.Errorf("fig10 variants = %d, want 4", len(OptVariants))
	}
}
