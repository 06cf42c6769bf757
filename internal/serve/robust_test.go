package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/store"
)

// newFaultyServer builds a server with an armed fault injector and
// (optionally) a journal, for the chaos tests.
func newFaultyServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	registerTestExperiments()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Parallel == 0 {
		cfg.Parallel = 4
	}
	s, err := New(cfg)
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

func directOutput(t *testing.T, exp string) string {
	t.Helper()
	var want bytes.Buffer
	if err := bench.RunJob(bench.NewEngine(4), bench.Job{Experiment: exp}, &want, nil); err != nil {
		t.Fatal(err)
	}
	return want.String()
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestPoisonedJobFailsOnceAndResubmitConverges: a poison cell that fires
// once fails the job on its one run — no retry, the fault in its error,
// no result — and a plain resubmission, with the rule spent, computes
// byte-identical output. Resubmitting is how a client re-runs a job.
func TestPoisonedJobFailsOnceAndResubmitConverges(t *testing.T) {
	inj := faultline.New(faultline.Spec{Seed: 7, Rules: []faultline.Rule{
		{Op: "engine.cell", Match: "table4:asan", Kind: faultline.KindPanic, Times: 1},
	}})
	_, ts := newFaultyServer(t, Config{Faults: inj})

	st := submit(t, ts, SubmitRequest{Experiment: "table4"})
	fin := waitTerminal(t, ts, st.ID, 60*time.Second)
	if fin.State != StateFailed || fin.Attempts != 1 || !strings.Contains(fin.Error, "faultline") {
		t.Fatalf("poisoned job = %s after %d starts (%q), want failed after 1 with the fault", fin.State, fin.Attempts, fin.Error)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("result of failed job: %s, want 410", resp.Status)
	}

	again := submit(t, ts, SubmitRequest{Experiment: "table4"})
	if again.ID == st.ID {
		t.Fatalf("resubmission attached to the failed job %s", st.ID)
	}
	fin2 := waitTerminal(t, ts, again.ID, 60*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("resubmission = %s (%s), want done", fin2.State, fin2.Error)
	}
	if got, want := fetchResult(t, ts, again.ID), directOutput(t, "table4"); got != want {
		t.Error("resubmitted result differs from direct sgxbench output")
	}
	m := metricsText(t, ts)
	for _, want := range []string{"sgxd_jobs_failed_total 1", "sgxd_jobs_completed_total 1", "sgxd_faults_injected_total 1"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDeadlineFailsWedgedJob: a job that cannot finish inside its deadline
// is aborted at the next hierarchy probe and failed with a deadline error
// after its one run — it never wedges the worker.
func TestDeadlineFailsWedgedJob(t *testing.T) {
	_, ts := newFaultyServer(t, Config{})
	st := submit(t, ts, SubmitRequest{Experiment: "sleepy", DeadlineMS: 150})
	fin := waitTerminal(t, ts, st.ID, 30*time.Second)
	if fin.State != StateFailed || fin.Attempts != 1 || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("wedged job = %s after %d starts (%q), want failed after 1 with a deadline error", fin.State, fin.Attempts, fin.Error)
	}
}

// TestUserCancelBeatsRetry: a client cancellation during a run lands the
// job in canceled, not failed — the deadline and failure handling must not
// reclassify an explicit abort.
func TestUserCancelBeatsRetry(t *testing.T) {
	_, ts := newFaultyServer(t, Config{})
	st := submit(t, ts, SubmitRequest{Experiment: "sleepy"})
	waitState(t, ts, st.ID, 5*time.Second, func(s JobState) bool { return s == StateRunning })
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, st.ID, 10*time.Second)
	if fin.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", fin.State)
	}
}

// TestSubmitJournalFailureIs503: a job whose submitted record cannot be
// journaled is not accepted — sgxd answers 503, and the job is not left in
// the queue to run without a durable record.
func TestSubmitJournalFailureIs503(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Manual: true, Journal: filepath.Join(t.TempDir(), "journal.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Abort() // the journal file is closed; every append now fails

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{"experiment":"fig2"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit with a dead journal: %s %s, want 503", resp.Status, body)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("a job the journal never recorded is queued: %+v", jobs)
	}
}

// TestStartJournalFailureFailsJob: a queued job whose start the journal
// cannot record settles failed, with the journal's error, and never runs.
// A start the journal does not count would let a job that kills its
// process escape MaxStarts.
func TestStartJournalFailureFailsJob(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	s, err := New(Config{
		Store: st, Manual: true, Journal: filepath.Join(t.TempDir(), "journal.jsonl"),
		Compute: func(ctx context.Context, spec bench.Job) (*ResultBundle, error) {
			computes.Add(1)
			return &ResultBundle{Output: "computed\n"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(SubmitRequest{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	s.Abort() // the journal file is closed; the started record cannot land
	if !s.RunNext() {
		t.Fatal("the submitted job was not queued")
	}
	fin := j.Status()
	if fin.State != StateFailed || !strings.Contains(fin.Error, "journal") {
		t.Errorf("job = %s (%q), want failed with the journal's error", fin.State, fin.Error)
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("job computed %d times without a journaled start, want 0", n)
	}
}

// TestStoreHitSurvivesTransientReadFault: a read of a store hit's entry
// that fails transiently is not taken for a missing entry — the store
// reports both as a miss — so the hit's ID still resolves.
func TestStoreHitSurvivesTransientReadFault(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store: st, Manual: true,
		Compute: func(ctx context.Context, spec bench.Job) (*ResultBundle, error) {
			return &ResultBundle{Output: "computed\n"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SubmitRequest{Experiment: "fig2"}); err != nil {
		t.Fatal(err)
	}
	s.RunNext()
	warm, err := s.Submit(SubmitRequest{Experiment: "fig2"})
	if err != nil || !warm.Status().FromStore {
		t.Fatalf("resubmission = %+v (%v), want a store hit", warm.Status(), err)
	}
	st.SetFaults(faultline.New(faultline.Spec{Rules: []faultline.Rule{
		{Op: "store.read.meta", Kind: faultline.KindError, Times: 1},
	}}))
	if got, ok := s.Status(warm.Status().ID); !ok || got.State != StateDone {
		t.Fatalf("store hit after one failed read: found=%t %+v, want done", ok, got)
	}
}

// TestFaultedSweepConverges is the acceptance scenario: a run with >10%
// store I/O faults plus one poison cell completes — the poisoned job fails
// with its fault, every other result is byte-identical to the clean
// output, and /metrics accounts for the injected faults.
func TestFaultedSweepConverges(t *testing.T) {
	inj := faultline.New(faultline.Spec{Seed: 42, Rules: []faultline.Rule{
		{Op: "store.*", Kind: faultline.KindError, Rate: 0.15},
		{Op: "engine.cell", Match: "table4:baggy", Kind: faultline.KindPanic},
	}})
	_, ts := newFaultyServer(t, Config{Faults: inj})

	poisoned := submit(t, ts, SubmitRequest{Experiment: "table4"})
	clean := submit(t, ts, SubmitRequest{Experiment: "fig2"})

	finP := waitTerminal(t, ts, poisoned.ID, 120*time.Second)
	if finP.State != StateFailed || !strings.Contains(finP.Error, "table4:baggy") {
		t.Fatalf("poisoned job = %s (%s), want failed with the poison cell's fault", finP.State, finP.Error)
	}
	finC := waitTerminal(t, ts, clean.ID, 120*time.Second)
	if finC.State != StateDone {
		t.Fatalf("clean job = %s (%s), want done despite store faults", finC.State, finC.Error)
	}
	if got, want := fetchResult(t, ts, clean.ID), directOutput(t, "fig2"); got != want {
		t.Error("faulted run corrupted an unpoisoned result")
	}
	// Resubmitting rolls the dice on faulted store reads again; whether it
	// comes back warm or recomputed, the bytes must not change.
	again := submit(t, ts, SubmitRequest{Experiment: "fig2"})
	finA := waitTerminal(t, ts, again.ID, 120*time.Second)
	if finA.State != StateDone {
		t.Fatalf("resubmission = %s (%s)", finA.State, finA.Error)
	}
	if got, want := fetchResult(t, ts, again.ID), directOutput(t, "fig2"); got != want {
		t.Error("resubmission under store faults served different bytes")
	}

	m := metricsText(t, ts)
	if !strings.Contains(m, "sgxd_jobs_failed_total 1") {
		t.Error("metrics do not count the poisoned job as failed")
	}
	if strings.Contains(m, "sgxd_faults_injected_total 0") {
		t.Error("metrics report zero injected faults in a faulted run")
	}
}

// TestJournalReplayResumesJobs: a journal carrying an interrupted job and
// one that has already started MaxStarts times (as left by a daemon that
// job kept killing) is replayed on boot — the interrupted job re-runs to
// byte-identical output under its original ID, the exhausted one settles
// failed with its start count and without running, and fresh IDs continue
// past the replayed sequence.
func TestJournalReplayResumesJobs(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")

	// Write the crashed daemon's journal by hand, in the documented JSONL
	// record grammar (see internal/serve/sched/journal.go): j7 was accepted
	// and interrupted mid-run, j8 started three times, as compaction folds
	// its started records.
	records := strings.Join([]string{
		`{"t":"submitted","id":"j000007","req":{"experiment":"table4"},"unix":50}`,
		`{"t":"started","id":"j000007"}`,
		`{"t":"submitted","id":"j000008","req":{"experiment":"fig2"},"unix":51}`,
		`{"t":"started","id":"j000008","attempts":3}`,
	}, "\n") + "\n"
	if err := os.WriteFile(journal, []byte(records), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newFaultyServer(t, Config{Store: st, Journal: journal})

	fin := waitTerminal(t, ts, "j000007", 60*time.Second)
	if fin.State != StateDone || !fin.Replayed {
		t.Fatalf("replayed job = %+v, want done+replayed", fin)
	}
	if got, want := fetchResult(t, ts, "j000007"), directOutput(t, "table4"); got != want {
		t.Error("replayed job's result differs from direct sgxbench output")
	}

	exhausted := getStatus(t, ts, "j000008")
	if exhausted.State != StateFailed || exhausted.Attempts != MaxStarts || !strings.Contains(exhausted.Error, "started 3 times") {
		t.Fatalf("exhausted job = %+v, want failed after %d starts", exhausted, MaxStarts)
	}
	if exhausted.StartedUnix != 0 {
		t.Errorf("exhausted job ran again: %+v", exhausted)
	}

	fresh := submit(t, ts, SubmitRequest{Experiment: "table4"})
	if fresh.ID <= "j000008" {
		t.Errorf("fresh ID %s collides with replayed sequence", fresh.ID)
	}
	waitTerminal(t, ts, fresh.ID, 30*time.Second)
}

// TestJournalSettlesAcrossRestart: after a replayed job completes, a
// second restart has nothing to resume — the finished record settled it.
func TestJournalSettlesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}

	registerTestExperiments()
	s1, err := New(Config{Store: st, Workers: 1, Parallel: 4, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	job := submit(t, ts1, SubmitRequest{Experiment: "table4"})
	waitTerminal(t, ts1, job.ID, 60*time.Second)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, replay, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Jobs) != 0 {
		t.Errorf("second restart resurrected settled jobs: %+v", replay.Jobs)
	}
	if replay.MaxSeq != 1 {
		t.Errorf("MaxSeq = %d, want 1", replay.MaxSeq)
	}
}

// TestReadyz: ready once boot replay finishes, 503 while shutting down;
// /healthz stays 200 throughout (liveness is not readiness).
func TestReadyz(t *testing.T) {
	registerTestExperiments()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before shutdown: %s", resp.Status)
	}

	s.Shutdown(context.Background())
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown: %s, want 503", resp2.Status)
	}
	var rd struct {
		Ready bool   `json:"ready"`
		Queue string `json:"queue"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || rd.Queue == "" {
		t.Errorf("readyz body = %+v, want not-ready with queue reason", rd)
	}
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("healthz after shutdown: %s (liveness must not track readiness)", resp3.Status)
	}
}
