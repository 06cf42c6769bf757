package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"sgxbounds/internal/bench"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("percentile reordered its input")
	}
}

func TestParseSections(t *testing.T) {
	got, err := parseSections("\n### a\nline 1\n\nline 2\n\n### b\nonly\n")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "line 1\n\nline 2\n", "b": "only\n"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sections = %q, want %q", got, want)
	}
	for _, bad := range []string{"no header\n", "\n### a\nx\n### b\n\n### a\ny\n"} {
		if _, err := parseSections(bad); err == nil {
			t.Errorf("parseSections(%q) accepted a malformed transcript", bad)
		}
	}
}

// The committed transcript parses into one section per experiment of the
// "all" sweep, and a section is exactly what the experiment prints.
func TestTranscriptSections(t *testing.T) {
	b, err := os.ReadFile("../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections, err := parseSections(string(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bench.AllExperimentNames() {
		if _, ok := sections[name]; !ok {
			t.Errorf("no section for %s", name)
		}
	}
	for _, name := range sweepList {
		if _, ok := sections[name]; !ok {
			t.Errorf("sweep experiment %s has no section", name)
		}
	}
	var fig2 bytes.Buffer
	bench.Fig2(&fig2)
	if sections["fig2"] != fig2.String() {
		t.Errorf("fig2 section differs from bench.Fig2 output")
	}
}

func TestParseMetricsDelta(t *testing.T) {
	before := parseMetrics([]byte("# TYPE sgxd_admitted_total counter\nsgxd_admitted_total 3\n" +
		"sgxd_job_elapsed_ms_bucket{le=\"7\"} 2\nsgxd_store_entries 10\n"))
	after := parseMetrics([]byte("sgxd_admitted_total 8\nsgxd_coalesced_total 2\n" +
		"sgxd_job_elapsed_ms_bucket{le=\"7\"} 5\nsgxd_store_entries 14\nnot a sample\n"))
	got := metricDelta(before, after)
	want := map[string]float64{
		"sgxd_admitted_total": 5, "sgxd_coalesced_total": 2,
		"sgxd_job_elapsed_ms_bucket{le=\"7\"}": 3, "sgxd_store_entries": 4,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delta = %v, want %v", got, want)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	span := 20 * time.Second
	mix := defaultServeColdMix()
	a, b := serveColdSchedule(7, span, mix), serveColdSchedule(7, span, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serve-cold: one seed gave two schedules")
	}
	if reflect.DeepEqual(a, serveColdSchedule(8, span, mix)) {
		t.Error("serve-cold: seeds 7 and 8 gave the same schedule")
	}
	if fa, fb := fleetSchedule(7, span), fleetSchedule(7, span); !reflect.DeepEqual(fa, fb) {
		t.Fatal("fleet: one seed gave two schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At || a[i].Seq != i {
			t.Fatalf("serve-cold schedule not ordered and numbered at %d", i)
		}
	}
}

// Every seed offers the same compute: the same distinct jobs, only
// ordered, timed, duplicated and repeated differently.
func TestServeColdOffersSameJobs(t *testing.T) {
	distinct := func(seed int64) map[string]bool {
		out := map[string]bool{}
		span := 20 * time.Second
		for _, o := range joinParts(serveColdSchedules(seed, span, defaultServeColdMix()), span/serveColdParts) {
			if o.Kind == kindCold || o.Kind == kindGrid {
				if out[o.key()] {
					t.Errorf("seed %d: job %v submitted cold twice", seed, o.Req)
				}
				out[o.key()] = true
			}
		}
		return out
	}
	a, b := distinct(1), distinct(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 offer different job sets (%d vs %d jobs)", len(a), len(b))
	}
	mix := defaultServeColdMix()
	if len(a) != len(mix.cold)+len(mix.grids) {
		t.Errorf("%d distinct jobs, want %d", len(a), len(mix.cold)+len(mix.grids))
	}
}

func TestArrivalsConditionedPoisson(t *testing.T) {
	at := arrivals(rand.New(rand.NewSource(3)), 4000, 20*time.Second)
	var gaps []float64
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("arrivals not sorted")
		}
		gaps = append(gaps, float64(at[i]-at[i-1]))
	}
	// Exponential gaps: mean 5 ms and a coefficient of variation near 1.
	var mean float64
	for _, g := range gaps {
		mean += g / float64(len(gaps))
	}
	var v float64
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(v/float64(len(gaps))) / mean
	if mean < 4.5e6 || mean > 5.5e6 || cv < 0.9 || cv > 1.1 {
		t.Errorf("gap mean %.2f ms, cv %.2f; want about 5 ms and 1", mean/1e6, cv)
	}
}

// The traced in-process stack serves a small schedule (cold cells, a grid
// over them, in-flight duplicates) byte-identically to the references, and
// every op's span tree tiles its wall time. Run it under -race: the
// wrappers are reached from the admitting and the worker goroutines.
func TestInProcessStackTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulation for a few seconds")
	}
	mix := serveColdMix{dups: 3, repeats: 2}
	for _, w := range []string{"gobmk", "h264ref", "x264", "histogram"} {
		for _, p := range []string{"sgx", "asan"} {
			mix.cold = append(mix.cold, cell{w, p, "XS"})
		}
	}
	mix.grids = [][2]cell{{{"gobmk", "sgx", "XS"}, {"x264", "asan", "XS"}}}
	ops := serveColdSchedule(5, 5*time.Second, mix)
	refs, err := references(ops)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	in, err := serveColdInProcess(config{runDir: t.TempDir()}, ops, refs, rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted != len(ops) {
		t.Fatalf("%d of %d ops failed (%d attempted)", rep.failed, len(ops), rep.attempted)
	}
	spans := in.tr.snapshot()
	if worst := reconcile(spans); worst > reconcileTolerance {
		t.Errorf("self times stray %.2f%% from op wall time", worst*100)
	}
	if rest, n := checkEngine(spans); n == 0 || rest < 0 || rest > engineSlack {
		t.Errorf("compute gaps exceed the scheduler's engine time by a median %s over %d jobs", rest, n)
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
	}
	for _, n := range []string{"op", "frontdoor.admit", "sched.submit", "sched.queue_wait", "sched.compute", "bench.engine", "resultier.put"} {
		if names[n] == 0 {
			t.Errorf("no %s span", n)
		}
	}
	pl := map[string]metric{}
	in.perLayer(pl)
	if got, want := pl["bench.cells_run"].Value, float64(len(mix.cold)+4); got != want {
		t.Errorf("cells run = %v, want %v (every cold cell once, the grid's four again)", got, want)
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "admit", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "submit", Start: 2 * ms, End: 8 * ms},
		{ID: 3, Parent: 0, Name: "wait", Start: 10 * ms, End: 60 * ms},
		{ID: 4, Parent: 0, Name: "compute", Start: 60 * ms, End: 95 * ms},
		// A second op whose children overlap: covered time counts once.
		{ID: 5, Parent: -1, Name: "op", Start: 0, End: 50 * ms},
		{ID: 6, Parent: 5, Name: "a", Start: 0, End: 30 * ms},
		{ID: 7, Parent: 5, Name: "b", Start: 20 * ms, End: 40 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{5 * ms, 4 * ms, 6 * ms, 50 * ms, 35 * ms, 10 * ms, 30 * ms, 20 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if err := reconcile(spans[:5]); err != 0 {
		t.Errorf("tiled op: reconcile error %v, want 0", err)
	}
	// Overlapping siblings make the subtree's self times exceed the wall
	// time by the overlap (10 of 50 ms), which the check must report.
	if err := reconcile(spans[5:8]); math.Abs(err-0.2) > 1e-9 {
		t.Errorf("overlapping op: reconcile error %v, want 0.2", err)
	}
	if err := reconcile(spans); err < reconcileTolerance {
		t.Errorf("reconcile over both ops = %v, want the worst op's error", err)
	}
}

// A tree that lost a layer still tiles its op, so reconcile passes it; the
// engine-time check does not. Here the persist was not timed, so the
// compute gap runs on to the settle and holds the persist's 10 ms besides
// the 19 ms the scheduler measured for the engine.
func TestEngineCheckCatchesMissingLayer(t *testing.T) {
	ms := time.Millisecond
	tree := func(withPut bool) []span {
		spans := []span{
			{ID: 0, Parent: -1, Name: "op", Start: 0, End: 50 * ms},
			{ID: 1, Parent: 0, Name: "sched.queue_wait", Start: 0, End: 8 * ms},
			{ID: 2, Parent: 0, Name: "resultier.get", Start: 8 * ms, End: 10 * ms},
		}
		computeEnd := 30 * ms
		if !withPut {
			computeEnd = 40 * ms
		}
		spans = append(spans,
			span{ID: 3, Parent: 0, Name: "sched.compute", Start: 10 * ms, End: computeEnd},
			span{ID: 4, Parent: 3, Name: "bench.engine", Start: computeEnd - 19*ms, End: computeEnd},
		)
		if withPut {
			spans = append(spans, span{ID: 5, Parent: 0, Name: "resultier.put", Start: 30 * ms, End: 40 * ms})
		}
		return append(spans, span{ID: 6, Parent: 0, Name: "sched.settle", Start: 40 * ms, End: 50 * ms})
	}
	for _, withPut := range []bool{true, false} {
		spans := tree(withPut)
		if err := reconcile(spans); err != 0 {
			t.Errorf("withPut=%v: reconcile error %v, want 0 (the tree tiles its op)", withPut, err)
		}
		rest, n := checkEngine(spans)
		if n != 1 {
			t.Fatalf("withPut=%v: checked %d engine spans, want 1", withPut, n)
		}
		if ok := rest >= 0 && rest <= engineSlack; ok != withPut {
			t.Errorf("withPut=%v: remainder %s passed=%v, want %v", withPut, rest, ok, withPut)
		}
	}
	// An engine time longer than the gap around it does not fit either.
	short := tree(true)
	short[4].Start = short[3].Start - 2*ms
	if rest, _ := checkEngine(short); rest >= 0 {
		t.Errorf("an engine time longer than its compute gap left remainder %s, want negative", rest)
	}
}

// A pinned child runs on the one CPU it was given, whatever mask the
// benchmark itself has.
func TestStartPinned(t *testing.T) {
	cpus, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	for _, cpu := range cpus {
		cmd := exec.Command("grep", "Cpus_allowed_list", "/proc/self/status")
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := startPinned(cmd, cpu); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("Cpus_allowed_list:\t%d\n", cpu); out.String() != want {
			t.Errorf("child reports %q, want %q", out.String(), want)
		}
	}
	if cpuSteal("cpu") < 0 || cpuSteal("no-such-cpu") != 0 {
		t.Error("cpuSteal: want a non-negative total and 0 for a missing line")
	}
}
