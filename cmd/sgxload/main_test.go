package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStalledScheduleIssuesEverySend stalls the issuing loop for longer
// than lateLimit partway through a run against a stub daemon. Every
// planned send must still go out, and the sends the stall held back by
// more than lateLimit must count as late, which fails the run.
func TestStalledScheduleIssuesEverySend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()

	const (
		planned  = 12
		interval = 50 * time.Millisecond
		stallAt  = 2
	)
	// Held at send 2 for lateLimit plus 4.5 intervals, sends 2..6 start
	// more than lateLimit after their schedule and sends 7..11 less. The
	// half interval is the margin for the scheduler's own jitter.
	stall := lateLimit + 9*interval/2
	outcomes := make([]outcome, planned)
	var wg sync.WaitGroup
	schedule(time.Now(), planned, interval, func(i int, at time.Time) {
		if i == stallAt {
			time.Sleep(stall)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = submit(srv.Client(), srv.URL, []byte(identicalJob), i, at)
		}()
	})
	wg.Wait()

	rep := buildReport(cliConfig{targets: []string{srv.URL}}, outcomes)
	if rep.Totals.Issued != planned || rep.Totals.Accepted != planned {
		t.Fatalf("issued %d and accepted %d of %d planned sends", rep.Totals.Issued, rep.Totals.Accepted, planned)
	}
	for i, o := range outcomes {
		if want := i >= stallAt && i <= stallAt+4; (o.late > lateLimit) != want {
			t.Errorf("send %d started %s after its schedule; late = %v, want %v", i, o.late, !want, want)
		}
		if o.latency < o.late {
			t.Errorf("send %d: latency %s is not timed from its schedule (late %s)", i, o.latency, o.late)
		}
	}
	if rep.Totals.Late != 5 {
		t.Errorf("report counts %d late sends, want 5", rep.Totals.Late)
	}
	if code := verdict(cliConfig{}, rep); code != 1 {
		t.Errorf("a run with late sends exits %d, want 1", code)
	}
}

// TestMixInterleaves checks body's deterministic mix: the identical share
// of every prefix stays within one send of mix, and the distinct sends
// walk the pool in order.
func TestMixInterleaves(t *testing.T) {
	for _, mix := range []float64{0, 0.5, 0.8, 1} {
		ident, distinct := 0, 0
		for i := 0; i < 40; i++ {
			if b := body(i, mix); string(b) == identicalJob {
				ident++
			} else if !bytes.Equal(b, distinctBody(distinct)) {
				t.Fatalf("mix %.1f send %d: %s, want distinct body %d", mix, i, b, distinct)
			} else {
				distinct++
			}
			if d := float64(ident) - mix*float64(i+1); d > 0 || d <= -1 {
				t.Fatalf("mix %.1f: %d identical among the first %d sends", mix, ident, i+1)
			}
		}
	}
}
