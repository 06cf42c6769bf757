package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/store"
)

// Synthetic experiments for lifecycle tests: "sleepy" runs until cancelled
// (or a 10s safety bound), "brief" computes quickly but long enough for a
// test to observe it running.
var registerOnce sync.Once

func registerTestExperiments() {
	registerOnce.Do(func() {
		bench.Register(bench.Experiment{
			Name: "sleepy", Desc: "test experiment: runs until cancelled", Custom: true,
			Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
				for i := 0; i < 1000 && !e.Canceled(); i++ {
					time.Sleep(10 * time.Millisecond)
				}
				fmt.Fprintln(w, "sleepy done")
				return nil
			},
		})
		bench.Register(bench.Experiment{
			Name: "brief", Desc: "test experiment: brief but observable", Custom: true,
			Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
				for i := 0; i < 30 && !e.Canceled(); i++ {
					time.Sleep(10 * time.Millisecond)
				}
				fmt.Fprintln(w, "brief done")
				return nil
			},
		})
	})
}

func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: workers, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, want func(JobState) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if want(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobStatus {
	return waitState(t, ts, id, timeout, JobState.Terminal)
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s: %s", id, resp.Status, raw)
	}
	return string(raw)
}

// TestServedBytesMatchSgxbench is the golden invariant: a figure fetched
// through sgxd is byte-identical to the same figure from the sgxbench code
// path (bench.RunJob on a fresh engine).
func TestServedBytesMatchSgxbench(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, exp := range []string{"fig2", "table4"} {
		st := submit(t, ts, SubmitRequest{Experiment: exp})
		fin := waitTerminal(t, ts, st.ID, 60*time.Second)
		if fin.State != StateDone {
			t.Fatalf("%s: state %s (%s)", exp, fin.State, fin.Error)
		}
		served := fetchResult(t, ts, st.ID)

		var want bytes.Buffer
		if err := bench.RunJob(bench.NewEngine(4), bench.Job{Experiment: exp}, &want, nil); err != nil {
			t.Fatal(err)
		}
		if served != want.String() {
			t.Errorf("%s: served bytes differ from sgxbench output\n--- served ---\n%s\n--- direct ---\n%s",
				exp, served, want.String())
		}
	}
}

// TestWarmHitServedFromStore: the second identical submission is replayed
// from disk — byte-identical, marked from_store, and with zero simulated
// cells.
func TestWarmHitServedFromStore(t *testing.T) {
	_, ts := newTestServer(t, 1)
	first := submit(t, ts, SubmitRequest{Experiment: "table4"})
	fin1 := waitTerminal(t, ts, first.ID, 60*time.Second)
	if fin1.State != StateDone || fin1.FromStore {
		t.Fatalf("first run: %+v", fin1)
	}
	if fin1.Cells.Runs == 0 {
		t.Fatalf("first run simulated no cells: %+v", fin1.Cells)
	}

	second := submit(t, ts, SubmitRequest{Experiment: "table4"})
	fin2 := waitTerminal(t, ts, second.ID, 10*time.Second)
	if fin2.State != StateDone || !fin2.FromStore {
		t.Fatalf("second run not served from store: %+v", fin2)
	}
	if fin2.Cells.Runs != 0 || fin2.Cells.Hits != 0 {
		t.Fatalf("warm hit simulated cells: %+v", fin2.Cells)
	}
	if got, want := fetchResult(t, ts, second.ID), fetchResult(t, ts, first.ID); got != want {
		t.Errorf("warm result differs from cold result")
	}
	if first.Key != second.Key {
		t.Errorf("equivalent jobs got different keys: %s vs %s", first.Key, second.Key)
	}

	// Force bypasses the store but must reproduce the same bytes.
	forced := submit(t, ts, SubmitRequest{Experiment: "table4", Force: true})
	fin3 := waitTerminal(t, ts, forced.ID, 60*time.Second)
	if fin3.State != StateDone || fin3.FromStore {
		t.Fatalf("forced run: %+v", fin3)
	}
	if got, want := fetchResult(t, ts, forced.ID), fetchResult(t, ts, first.ID); got != want {
		t.Errorf("forced recompute differs from original")
	}
}

// TestWarmHitIsStoreView: a resubmission whose result is stored is a view
// of the store entry, not a job. Every warm submission answers the same
// k<key> ID, its POST body equals its GET body, and it leaves the
// journal's bytes and the job list as they were. The ID answers status,
// result and progress; it has no profile, and a cancel changes nothing. A
// new server over the same store and journal resolves it to the same
// bytes, and Force still queues a journaled job.
func TestWarmHitIsStoreView(t *testing.T) {
	registerTestExperiments()
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	boot := func() (*Server, *httptest.Server) {
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Store: st, Manual: true, Parallel: 2, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	s1, ts1 := boot()
	cold := submit(t, ts1, SubmitRequest{Experiment: "fig2"})
	for s1.RunNext() {
	}
	want := fetchResult(t, ts1, cold.ID)
	if want != directOutput(t, "fig2") {
		t.Fatal("cold result differs from sgxbench")
	}
	journalBefore, _ := os.ReadFile(journal)
	listBefore := s1.List()

	warmID := "k" + cold.Key
	for i := 0; i < 5; i++ {
		st := submit(t, ts1, SubmitRequest{Experiment: "fig2"})
		if st.ID != warmID || st.State != StateDone || !st.FromStore {
			t.Fatalf("warm submission %d = %+v, want done from store as %s", i, st, warmID)
		}
		if got := getStatus(t, ts1, st.ID); !reflect.DeepEqual(got, st) {
			t.Fatalf("GET %s = %+v, POST answered %+v", st.ID, got, st)
		}
	}
	if journalAfter, _ := os.ReadFile(journal); !bytes.Equal(journalAfter, journalBefore) {
		t.Errorf("warm submissions wrote to the journal:\n%s", journalAfter[len(journalBefore):])
	}
	if got := s1.List(); !reflect.DeepEqual(got, listBefore) {
		t.Errorf("warm submissions changed the job list: %+v, was %+v", got, listBefore)
	}

	if got := fetchResult(t, ts1, warmID); got != want {
		t.Error("warm ID serves different bytes")
	}
	if got := httpGet(t, ts1.URL+"/api/v1/jobs/"+warmID+"/progress", http.StatusOK); !strings.Contains(got, "served from store") {
		t.Errorf("warm progress = %q", got)
	}
	httpGet(t, ts1.URL+"/api/v1/jobs/"+warmID+"/profile", http.StatusNotFound)
	del, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/api/v1/jobs/"+warmID, nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts1, warmID); resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Errorf("cancel of a warm ID: %s, then %s; want 200 and still done", resp.Status, st.State)
	}
	// The key part must be a valid store key before any disk is touched.
	for _, bad := range []string{"k" + strings.ToUpper(cold.Key), "k..", "k" + cold.Key[:3], "k"} {
		if _, ok := s1.Status(bad); ok {
			t.Errorf("ID %q resolved", bad)
		}
	}
	s1.Shutdown(context.Background())
	ts1.Close()

	s2, ts2 := boot()
	defer func() { s2.Shutdown(context.Background()); ts2.Close() }()
	if got := fetchResult(t, ts2, warmID); got != want {
		t.Error("warm ID serves different bytes after a restart")
	}
	forced := submit(t, ts2, SubmitRequest{Experiment: "fig2", Force: true})
	if forced.ID == warmID || forced.State != StateQueued {
		t.Fatalf("forced submission = %+v, want a queued job", forced)
	}
	if raw, _ := os.ReadFile(journal); !strings.Contains(string(raw), `"id":"`+forced.ID+`"`) {
		t.Errorf("forced job %s not journaled", forced.ID)
	}
}

// TestJournalAppendsCounted: sgxd_journal_appends_total counts the records
// made durable. A cold job writes three (submitted, started, finished) and
// a store hit none.
func TestJournalAppendsCounted(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Manual: true, Parallel: 2, Journal: filepath.Join(t.TempDir(), "journal.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { s.Shutdown(context.Background()); ts.Close() }()
	appends := func(want int) {
		t.Helper()
		line := fmt.Sprintf("sgxd_journal_appends_total %d\n", want)
		if m := metricsText(t, ts); !strings.Contains(m, line) {
			t.Fatalf("metrics lack %q", line)
		}
	}
	appends(0)
	submit(t, ts, SubmitRequest{Experiment: "fig2"})
	for s.RunNext() {
	}
	appends(3)
	for i := 0; i < 3; i++ {
		submit(t, ts, SubmitRequest{Experiment: "fig2"})
		appends(3)
	}
}

// httpGet fetches url, requires the given status code, and returns the
// body.
func httpGet(t *testing.T, url string, code int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != code {
		t.Fatalf("GET %s: %s, want %d: %s", url, resp.Status, code, raw)
	}
	return string(raw)
}

// TestSurvivesRestart: the store is persistent — a new server over the same
// root serves the old result without recomputing.
func TestSurvivesRestart(t *testing.T) {
	registerTestExperiments()
	root := t.TempDir()
	st1, _ := store.Open(root)
	s1, err := New(Config{Store: st1, Workers: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	job1 := submit(t, ts1, SubmitRequest{Experiment: "table4"})
	fin := waitTerminal(t, ts1, job1.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("first server: %+v", fin)
	}
	original := fetchResult(t, ts1, job1.ID)
	s1.Shutdown(context.Background())
	ts1.Close()

	st2, _ := store.Open(root)
	s2, err := New(Config{Store: st2, Workers: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { s2.Shutdown(context.Background()); ts2.Close() }()
	job2 := submit(t, ts2, SubmitRequest{Experiment: "table4"})
	fin2 := waitTerminal(t, ts2, job2.ID, 10*time.Second)
	if fin2.State != StateDone || !fin2.FromStore {
		t.Fatalf("restarted server did not serve from store: %+v", fin2)
	}
	if got := fetchResult(t, ts2, job2.ID); got != original {
		t.Errorf("restart changed the served bytes")
	}
}

// TestCorruptStoreRecomputes: flip a byte in the stored body; the next
// submission recomputes instead of serving bad bytes, and the recomputed
// result is identical to the original.
func TestCorruptStoreRecomputes(t *testing.T) {
	s, ts := newTestServer(t, 1)
	first := submit(t, ts, SubmitRequest{Experiment: "table4"})
	fin := waitTerminal(t, ts, first.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("first run: %+v", fin)
	}
	original := fetchResult(t, ts, first.ID)

	bodyPath := filepath.Join(s.store.Root(), first.Key[:2], first.Key+".body")
	raw, err := os.ReadFile(bodyPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(bodyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	second := submit(t, ts, SubmitRequest{Experiment: "table4"})
	fin2 := waitTerminal(t, ts, second.ID, 60*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("recompute: %+v", fin2)
	}
	if fin2.FromStore {
		t.Fatal("corrupt entry was served from store")
	}
	if got := fetchResult(t, ts, second.ID); got != original {
		t.Errorf("recomputed result differs from original")
	}
}

// TestCancelRunningJob: DELETE aborts a running job promptly.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, SubmitRequest{Experiment: "sleepy"})
	waitState(t, ts, st.ID, 5*time.Second, func(s JobState) bool { return s == StateRunning })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	start := time.Now()
	fin := waitTerminal(t, ts, st.ID, 5*time.Second)
	if fin.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", fin.State)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	// A cancelled job serves no result.
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Errorf("result of cancelled job: %s, want 410", resp2.Status)
	}
}

// TestCancelQueuedJob: with one worker busy, a queued job cancels without
// ever running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, 1)
	running := submit(t, ts, SubmitRequest{Experiment: "sleepy"})
	waitState(t, ts, running.ID, 5*time.Second, func(s JobState) bool { return s == StateRunning })
	queued := submit(t, ts, SubmitRequest{Experiment: "sleepy", Force: true})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Free the worker so it can discard the cancelled queued job.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+running.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()

	fin := waitTerminal(t, ts, queued.ID, 5*time.Second)
	if fin.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", fin.State)
	}
	if fin.StartedUnix != 0 {
		t.Errorf("cancelled queued job reports a start time")
	}
}

// TestShutdownDrainsInFlight: Shutdown lets the running job finish and
// persist, and refuses new submissions.
func TestShutdownDrainsInFlight(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := submit(t, ts, SubmitRequest{Experiment: "brief"})
	waitState(t, ts, job.ID, 5*time.Second, func(js JobState) bool { return js == StateRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	fin := getStatus(t, ts, job.ID)
	if fin.State != StateDone {
		t.Fatalf("drained job state = %s (%s), want done", fin.State, fin.Error)
	}
	if _, _, ok := st.Get(fin.Key, bench.SimVersion); !ok {
		t.Error("drained job's result not persisted")
	}
	if _, err := s.Submit(SubmitRequest{Experiment: "fig2"}); err != ErrShuttingDown {
		t.Errorf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestProgressStreams: the progress endpoint replays buffered lines and
// terminates when the job does.
func TestProgressStreams(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, SubmitRequest{Experiment: "table4"})
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // returns only once the job finishes
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "cells 5/5") {
		t.Errorf("progress stream missing final cell count:\n%s", raw)
	}
	fin := getStatus(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job after progress stream: %s", fin.State)
	}

	// Warm submissions explain themselves in the progress stream too.
	warm := submit(t, ts, SubmitRequest{Experiment: "table4"})
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + warm.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(raw2), "served from store") {
		t.Errorf("warm progress = %q, want store notice", raw2)
	}
}

// TestProfileDownload: a computed job exposes its telemetry dump; a
// store-served job has none.
func TestProfileDownload(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, SubmitRequest{Experiment: "table4", Trace: true})
	waitTerminal(t, ts, st.ID, 60*time.Second)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: %s", resp.Status)
	}
	var profile map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&profile); err != nil {
		t.Fatalf("profile is not JSON: %v", err)
	}

	warm := submit(t, ts, SubmitRequest{Experiment: "table4"})
	waitTerminal(t, ts, warm.ID, 10*time.Second)
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + warm.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("store-served profile: %s, want 404", resp2.Status)
	}
}

// TestValidationAndRouting: API error paths.
func TestValidationAndRouting(t *testing.T) {
	_, ts := newTestServer(t, 1)
	body, _ := json.Marshal(SubmitRequest{Experiment: "fig99"})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: %s, want 400", resp.Status)
	}
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp2.Status)
	}
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("healthz: %s", resp3.Status)
	}
}

// TestExperimentsEndpoint: the experiment list is derived from the bench
// registry and includes "all".
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/api/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(infos))
	for _, info := range infos {
		have[info.Name] = true
	}
	for _, name := range append(bench.ExperimentNames(), "all") {
		if !have[name] {
			t.Errorf("experiments list missing %q", name)
		}
	}
}

// TestMetricsEndpoint: Prometheus exposition with the daemon counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 1)
	st := submit(t, ts, SubmitRequest{Experiment: "fig2"})
	waitTerminal(t, ts, st.ID, 30*time.Second)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, want := range []string{
		"sgxd_jobs_submitted_total 1",
		"sgxd_jobs_completed_total 1",
		"# TYPE sgxd_store_entries gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestGCEndpoint: POST /api/v1/gc reports the store sweep.
func TestGCEndpoint(t *testing.T) {
	s, ts := newTestServer(t, 1)
	st := submit(t, ts, SubmitRequest{Experiment: "fig2"})
	waitTerminal(t, ts, st.ID, 30*time.Second)
	// Plant a stale-version entry for GC to reap.
	staleKey := strings.Repeat("77", 32)
	if err := s.store.Put(staleKey, []byte("old"), store.Meta{Version: "sgxbounds-sim/0"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/gc", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Removed int         `json:"removed"`
		Stats   store.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Removed != 1 || out.Stats.Entries != 1 {
		t.Errorf("gc = %+v, want 1 removed, 1 kept", out)
	}
}
