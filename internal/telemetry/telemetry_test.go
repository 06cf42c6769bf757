package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Add(7) // must not panic
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	real := new(Counter)
	real.Add(3)
	real.Inc()
	if got := real.Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
}

// TestHistogramBuckets pins the log2 bucketing contract: bucket i holds
// values whose bit length is i, so bucket boundaries are exact powers of
// two and the extremes (0, 1, MaxUint64) land where documented.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1<<32 - 1, 32},
		{1 << 32, 33},
		{1<<63 - 1, 63},
		{1 << 63, 64},
		{math.MaxUint64, 64},
	}
	for _, tc := range cases {
		h := new(Histogram)
		h.Observe(tc.v)
		s := h.Snapshot()
		if s.Count != 1 || s.Sum != tc.v {
			t.Errorf("Observe(%d): count=%d sum=%d", tc.v, s.Count, s.Sum)
		}
		for i, n := range s.Buckets {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%d): bucket[%d]=%d, want %d", tc.v, i, n, want)
			}
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(42) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
}

// TestHistogramObserveN pins ObserveN to n calls of Observe, down to the
// bucket counts and the wrapping sum, including n = 0 and the top bucket.
func TestHistogramObserveN(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 1 << 63} {
		for _, n := range []uint64{0, 1, 1000} {
			folded, looped := new(Histogram), new(Histogram)
			folded.ObserveN(v, n)
			for i := uint64(0); i < n; i++ {
				looped.Observe(v)
			}
			if got, want := folded.Snapshot(), looped.Snapshot(); got != want {
				t.Errorf("ObserveN(%d, %d) = %+v, want %+v", v, n, got, want)
			}
		}
	}
	var h *Histogram
	h.ObserveN(42, 3) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	h := new(Histogram)
	for i := 0; i < 90; i++ {
		h.Observe(4) // bucket 3 (values 4..7)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket 10 (values 512..1023)
	}
	s := h.Snapshot()
	if got, want := s.Mean(), (90*4.0+10*1000.0)/100; got != want {
		t.Errorf("mean = %g, want %g", got, want)
	}
	if got := s.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7 (upper bound of bucket 3)", got)
	}
	if got := s.Quantile(0.99); got != 1023 {
		t.Errorf("p99 = %d, want 1023 (upper bound of bucket 10)", got)
	}
	var zero HistSnapshot
	if zero.Quantile(0.5) != 0 || zero.Mean() != 0 {
		t.Errorf("empty snapshot quantile/mean not zero")
	}
}

func TestRegistryResolvesSameHandle(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Fatal("same name resolved to different counters")
	}
	a.Add(2)
	if got := r.Snapshot().Counters["x"]; got != 2 {
		t.Fatalf("snapshot counter = %d, want 2", got)
	}
	h1, h2 := r.Histogram("h"), r.Histogram("h")
	if h1 != h2 {
		t.Fatal("same name resolved to different histograms")
	}
}

func TestRegistryNil(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("y") != nil {
		t.Fatal("nil registry must resolve nil handles")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestTracerOverflow pins the drop contract: a full tracer keeps the first
// cap events, drops the rest, and accounts every drop.
func TestTracerOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Ts: uint64(i), Kind: EvEPCFault, Arg0: uint64(i)})
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(events))
	}
	for i, e := range events {
		if e.Ts != uint64(i) {
			t.Errorf("event %d has ts %d: head of the run must be kept", i, e.Ts)
		}
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	if tr.Len() != 4 || tr.Cap() != 4 {
		t.Fatalf("len/cap = %d/%d, want 4/4", tr.Len(), tr.Cap())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvEviction}) // must not panic
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Len() != 0 || tr.Cap() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestTracerDefaultCap(t *testing.T) {
	if got := NewTracer(0).Cap(); got != DefaultTraceCap {
		t.Fatalf("default cap = %d, want %d", got, DefaultTraceCap)
	}
}

func TestEventKindRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d round-trips to %d (ok=%v)", k, got, ok)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Error("unknown kind name must not resolve")
	}
}

func TestProfileDisabledIsNil(t *testing.T) {
	if p := NewProfile("x", Options{}); p != nil {
		t.Fatal("profile with nothing enabled must be nil")
	}
	var p *Profile
	if p.Counter("c") != nil || p.Histogram("h") != nil || p.Tracer() != nil {
		t.Fatal("nil profile must resolve nil handles")
	}
}

func TestCollectorSharesByLabel(t *testing.T) {
	c := NewCollector(Options{Metrics: true, Events: true, EventCap: 8})
	a := c.Attach("cell-a")
	b := c.Attach("cell-b")
	if a == nil || b == nil || a == b {
		t.Fatal("distinct labels must attach distinct profiles")
	}
	if c.Attach("cell-a") != a {
		t.Fatal("same label must share one profile")
	}
	if c.Len() != 2 {
		t.Fatalf("collector len = %d, want 2", c.Len())
	}
	var nilC *Collector
	if nilC.Attach("x") != nil || nilC.Len() != 0 || nilC.Profiles() != nil {
		t.Fatal("nil collector must be inert")
	}
}

// TestConcurrentPublishers hammers one profile's handles from many
// goroutines; run under -race this is the data-race gate for the whole
// publishing surface.
func TestConcurrentPublishers(t *testing.T) {
	p := NewProfile("race", Options{Metrics: true, Events: true, EventCap: 1024})
	ctr := p.Counter("c")
	hist := p.Histogram("h")
	tr := p.Tracer()
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctr.Inc()
				hist.Observe(uint64(i))
				tr.Emit(Event{Ts: uint64(i), Tid: int32(w), Kind: EvEPCFault})
				// Late resolution must also be safe alongside publishing.
				p.Counter("c").Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got, want := ctr.Value(), uint64(2*workers*iters); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := hist.Snapshot().Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := uint64(tr.Len()) + tr.Dropped(); got != workers*iters {
		t.Fatalf("kept+dropped = %d, want %d", got, workers*iters)
	}
}
