package cluster

import (
	"testing"
	"time"

	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/telemetry"
)

// fakeClock drives the breaker state machine deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreakers(opened *int) (*breakers, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreakers(100*time.Millisecond, 800*time.Millisecond, clk.now, func() {
		if opened != nil {
			*opened++
		}
	})
	return b, clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	opened := 0
	b, _ := newTestBreakers(&opened)
	for i := 0; i < breakerThreshold-1; i++ {
		if !b.allow("p") {
			t.Fatalf("allow refused before threshold (failure %d)", i)
		}
		b.failure("p")
		if b.open("p") {
			t.Fatalf("breaker open after %d failures (threshold %d)", i+1, breakerThreshold)
		}
	}
	b.failure("p")
	if !b.open("p") {
		t.Fatal("breaker not open after threshold consecutive failures")
	}
	if b.allow("p") {
		t.Fatal("allow admitted a call while open")
	}
	if opened != 1 {
		t.Fatalf("opened hook fired %d times, want 1", opened)
	}
	if got := b.describe("p"); got != "open" {
		t.Fatalf("describe = %q, want open", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreakers(nil)
	b.failure("p")
	b.failure("p")
	b.success("p") // interleaved success: not consecutive anymore
	b.failure("p")
	b.failure("p")
	if b.open("p") {
		t.Fatal("breaker opened without consecutive-threshold failures")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	opened := 0
	b, clk := newTestBreakers(&opened)
	for i := 0; i < breakerThreshold; i++ {
		b.failure("p")
	}
	if b.allow("p") {
		t.Fatal("allow admitted during the open window")
	}
	clk.advance(101 * time.Millisecond)
	if b.open("p") {
		t.Fatal("open still true after the window expired")
	}
	if !b.allow("p") {
		t.Fatal("first call after the window must be the half-open probe")
	}
	if b.allow("p") {
		t.Fatal("second concurrent call admitted while the probe is in flight")
	}
	if got := b.describe("p"); got != "half-open" {
		t.Fatalf("describe = %q, want half-open", got)
	}

	// Probe succeeds → closed, streak and backoff reset.
	b.success("p")
	if b.open("p") || !b.allow("p") || b.describe("p") != "" {
		t.Fatal("breaker did not close after a successful probe")
	}
}

func TestBreakerProbeFailureDoublesBackoff(t *testing.T) {
	opened := 0
	b, clk := newTestBreakers(&opened)
	for i := 0; i < breakerThreshold; i++ {
		b.failure("p")
	}
	backoff := 100 * time.Millisecond
	for round, want := range []time.Duration{200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond, 800 * time.Millisecond} {
		clk.advance(backoff + time.Millisecond)
		if !b.allow("p") {
			t.Fatalf("round %d: probe not admitted after %v window", round, backoff)
		}
		b.failure("p") // probe fails → reopen with doubled window (capped)
		backoff = want
		clk.advance(want - time.Millisecond)
		if !b.open("p") {
			t.Fatalf("round %d: breaker closed before the %v window elapsed", round, want)
		}
	}
	if opened != 5 { // initial open + 4 probe failures
		t.Fatalf("opened hook fired %d times, want 5", opened)
	}
}

func TestBreakerForget(t *testing.T) {
	b, _ := newTestBreakers(nil)
	for i := 0; i < breakerThreshold; i++ {
		b.failure("p")
	}
	b.forget("p")
	if b.open("p") || b.describe("p") != "" {
		t.Fatal("forget left breaker state behind")
	}
}

// TestFetchBreakerUnderFaultline drives the fetch-side breaker through the
// cluster's own accounting path with a deterministic faultline error rule
// on cluster.peer.fetch: every FetchResult short-circuits to a miss before
// any peer is contacted, so no failure ever reaches the breaker — injected
// read-through faults must degrade to recompute, not to a quarantined peer.
func TestFetchBreakerUnderFaultline(t *testing.T) {
	inj := faultline.New(faultline.Spec{
		Seed:  7,
		Rules: []faultline.Rule{{Op: "cluster.peer.fetch", Kind: faultline.KindError}},
	})
	c, err := New(Config{
		Self: "n1",
		Nodes: []Node{
			{ID: "n1", Addr: "http://127.0.0.1:1"},
			{ID: "n2", Addr: "http://127.0.0.1:2"},
		},
		Local:   nopLocal{},
		Metrics: telemetry.NewRegistry(),
		Faults:  inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*breakerThreshold; i++ {
		if _, _, ok := c.FetchResult("somekey", "v1"); ok {
			t.Fatal("injected fetch fault returned a result")
		}
	}
	if c.breakers.open("n2") {
		t.Fatal("cluster.peer.fetch faults opened a peer breaker: the site fires before any peer call")
	}
}

// TestForwardFailuresOpenBreakerAndRouteFallsBack exercises the degraded
// path end to end at the unit level: unreachable peer → Forward failures →
// breaker opens → Route falls back to local.
func TestForwardFailuresOpenBreakerAndRouteFallsBack(t *testing.T) {
	c, err := New(Config{
		Self: "n1",
		// n2's address points at a port nothing listens on.
		Nodes: []Node{
			{ID: "n1", Addr: "http://127.0.0.1:1"},
			{ID: "n2", Addr: "http://127.0.0.2:9"},
		},
		Local:   nopLocal{},
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.client.Timeout = 200 * time.Millisecond
	// Mark n2 alive so routing considers it (no loop is running).
	c.mu.Lock()
	c.peers["n2"].alive = true
	c.peers["n2"].lastSeen = time.Now()
	c.mu.Unlock()

	// Find a key n2 owns.
	key := ""
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		if c.ownerOf(k) == "n2" {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no probe key hashed to n2")
	}
	if node, local := c.Route(key, false); local || node != "n2" {
		t.Fatalf("Route(%q) = (%q, %v), want n2 remote", key, node, local)
	}
	req := sched.SubmitRequest{Experiment: "fig1", Threads: 1}
	for i := 0; i < breakerThreshold; i++ {
		if _, _, err := c.Forward("n2", "t", req, ""); err == nil {
			t.Fatal("Forward to an unreachable peer succeeded")
		}
	}
	if !c.breakers.open("n2") {
		t.Fatal("breaker not open after consecutive forward failures")
	}
	if _, local := c.Route(key, false); !local {
		t.Fatal("Route still names a peer whose breaker is open (want local fallback)")
	}
}
