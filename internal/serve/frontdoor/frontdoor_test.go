package frontdoor

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// newBackend builds a Manual-mode scheduler whose compute is a counting
// stub, so tests control exactly when work happens and can assert how
// often.
func newBackend(t *testing.T, backlog int, computes *atomic.Int64, fail bool) *sched.Scheduler {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{
		Store:   st,
		Backlog: backlog,
		Manual:  true,
		Compute: func(ctx context.Context, spec bench.Job) (*sched.ResultBundle, error) {
			computes.Add(1)
			if fail {
				return nil, errors.New("stub failure")
			}
			return &sched.ResultBundle{Output: "output for " + spec.Experiment + "\n"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

func req(exp string) sched.SubmitRequest { return sched.SubmitRequest{Experiment: exp} }

func TestCoalescingSharesOneComputation(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	reg := telemetry.NewRegistry()
	d := New(Config{Backend: be, Metrics: reg})

	const n = 50
	jobs := make([]*sched.Job, n)
	flags := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, co, err := d.Admit("acme", req("fig2"))
			if err != nil {
				t.Errorf("admit %d: %v", i, err)
				return
			}
			jobs[i], flags[i] = j, co
		}(i)
	}
	wg.Wait()

	leaders := 0
	for i, co := range flags {
		if !co {
			leaders++
		}
		if jobs[i] != jobs[0] {
			t.Fatalf("submit %d got a different job record", i)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
	if got := reg.Counter("coalesced").Value(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}

	for be.RunNext() {
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	st := jobs[0].Status()
	if st.State != sched.StateDone {
		t.Fatalf("shared job state = %s", st.State)
	}
}

func TestForceBypassesCoalescing(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	d := New(Config{Backend: be})

	j1, co1, err := d.Admit("acme", sched.SubmitRequest{Experiment: "fig2", Force: true})
	if err != nil || co1 {
		t.Fatalf("force admit 1: coalesced=%v err=%v", co1, err)
	}
	j2, co2, err := d.Admit("acme", sched.SubmitRequest{Experiment: "fig2", Force: true})
	if err != nil || co2 {
		t.Fatalf("force admit 2: coalesced=%v err=%v", co2, err)
	}
	if j1 == j2 {
		t.Fatal("forced submissions shared a job")
	}
}

func TestDrainRejectsImmediately(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	reg := telemetry.NewRegistry()
	d := New(Config{Backend: be, Metrics: reg})

	if _, _, err := d.Admit("acme", req("fig2")); err != nil {
		t.Fatalf("pre-drain admit: %v", err)
	}
	d.BeginDrain()
	if _, _, err := d.Admit("acme", req("table4")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admit err = %v, want ErrDraining", err)
	}
	if got := reg.Counter("rejected").Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestRateLimitTokenBucket(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	now := time.Unix(1000, 0)
	d := New(Config{
		Backend: be, TenantRPS: 1, TenantBurst: 2,
		Now: func() time.Time { return now },
	})

	// Burst of 2 passes; distinct experiments so coalescing stays out of
	// the picture (the bucket is charged either way, but the assertion is
	// clearer on leaders).
	if _, _, err := d.Admit("acme", req("fig2")); err != nil {
		t.Fatalf("burst 1: %v", err)
	}
	if _, _, err := d.Admit("acme", req("table4")); err != nil {
		t.Fatalf("burst 2: %v", err)
	}
	if _, _, err := d.Admit("acme", req("fig7")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst err = %v, want ErrRateLimited", err)
	}
	// Another tenant has its own bucket.
	if _, _, err := d.Admit("umbrella", req("fig8")); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// A second of refill buys exactly one more token.
	now = now.Add(time.Second)
	if _, _, err := d.Admit("acme", req("fig7")); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
	if _, _, err := d.Admit("acme", req("fig9")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-refill second err = %v, want ErrRateLimited", err)
	}
}

func TestInFlightQuotaReleasesOnCompletion(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	d := New(Config{Backend: be, TenantMaxInFlight: 2})

	j1, _, err := d.Admit("acme", req("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Admit("acme", req("table4")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Admit("acme", req("fig7")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third in-flight err = %v, want ErrQuotaExceeded", err)
	}
	// Coalesced followers are free: same request attaches, no quota slot.
	if _, co, err := d.Admit("acme", req("fig2")); err != nil || !co {
		t.Fatalf("coalesced attach under full quota: coalesced=%v err=%v", co, err)
	}

	// Complete one job; its slot frees once the watcher observes Done.
	if !be.RunNext() {
		t.Fatal("nothing queued")
	}
	<-j1.Done()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, err := d.Admit("acme", req("fig7")); err == nil {
			break
		} else if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("readmit err = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota slot never released after job completion")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSaturationBackpressure(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 1, &computes, false)
	reg := telemetry.NewRegistry()
	d := New(Config{Backend: be, Metrics: reg})

	if _, _, err := d.Admit("acme", req("fig2")); err != nil {
		t.Fatalf("fill backlog: %v", err)
	}
	if _, _, err := d.Admit("acme", req("table4")); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated admit err = %v, want ErrSaturated", err)
	}
	if got := reg.Counter("rejected.saturated").Value(); got != 1 {
		t.Fatalf("rejected.saturated = %d, want 1", got)
	}
	// Drain the backlog; admission recovers.
	for be.RunNext() {
	}
	if _, _, err := d.Admit("acme", req("table4")); err != nil {
		t.Fatalf("post-drain admit: %v", err)
	}
}

func TestFailedLeaderIsNotAttachedTo(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, true)
	d := New(Config{Backend: be})

	j1, _, err := d.Admit("acme", req("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	for be.RunNext() {
	}
	<-j1.Done()
	if st := j1.Status().State; st != sched.StateFailed {
		t.Fatalf("leader state = %s, want failed", st)
	}
	// The retry must become a fresh leader, not inherit the failure.
	j2, co, err := d.Admit("acme", req("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	if co || j2 == j1 {
		t.Fatalf("resubmit attached to failed leader (coalesced=%v)", co)
	}
}

func TestValidationBeforeCharging(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	d := New(Config{Backend: be, TenantRPS: 1, TenantBurst: 1})
	if _, _, err := d.Admit("acme", req("no-such-experiment")); err == nil {
		t.Fatal("invalid experiment admitted")
	}
	// The bucket was not charged: a valid submit still passes.
	if _, _, err := d.Admit("acme", req("fig2")); err != nil {
		t.Fatalf("valid submit after invalid one: %v", err)
	}
}

// TestStoreHitsHoldNoQuotaSlot: a store hit costs no compute, so it holds
// no in-flight slot, no flight entry and no watcher. Once a cold job has
// settled and freed the tenant's only slot, back-to-back warm admissions
// all pass.
func TestStoreHitsHoldNoQuotaSlot(t *testing.T) {
	var computes atomic.Int64
	be := newBackend(t, 64, &computes, false)
	d := New(Config{Backend: be, TenantMaxInFlight: 1})

	j, _, err := d.Admit("acme", req("fig2"))
	if err != nil {
		t.Fatal(err)
	}
	be.RunNext()
	<-j.Done()
	deadline := time.Now().Add(2 * time.Second)
	for d.inFlight("acme") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cold job's slot was never released")
		}
		time.Sleep(time.Millisecond)
	}

	refused := 0
	for i := 0; i < 200; i++ {
		w, co, err := d.Admit("acme", req("fig2"))
		if err != nil {
			refused++
			continue
		}
		if co || !w.Status().FromStore {
			t.Fatalf("warm admission %d: coalesced=%v status=%+v, want a store hit", i, co, w.Status())
		}
	}
	if refused > 0 {
		t.Errorf("%d of 200 warm admissions refused under a free quota", refused)
	}
	if n := d.inFlight("acme"); n != 0 {
		t.Errorf("store hits hold %d in-flight slots", n)
	}
	d.mu.Lock()
	flights := len(d.flights)
	d.mu.Unlock()
	if flights != 0 {
		t.Errorf("store hits left %d flight entries", flights)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
}

// inFlight reads a tenant's in-flight count.
func (d *Door) inFlight(tenantID string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tenant(tenantID).inFlight
}
