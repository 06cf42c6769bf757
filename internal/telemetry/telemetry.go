// Package telemetry is the observability subsystem of the simulated
// enclave: a metrics registry of typed counters and log-scale histograms, a
// bounded structured-event tracer, and exporters for the captured data
// (JSONL events, CSV metric summaries, Chrome trace_event, and the run
// profile consumed by cmd/sgxtrace).
//
// The subsystem is strictly a side channel: nothing in it feeds back into
// the simulation, so simulated results (counters, digests, table output)
// are identical with telemetry enabled and disabled. The contract with the
// hot paths is zero cost when disabled:
//
//   - Every publishing handle (*Counter, *Histogram, *Tracer) is nil-safe.
//     A nil handle's method is an inlinable nil check — one predictable
//     branch — so instrumented code calls handles unconditionally.
//   - Handles are pre-resolved once at machine construction (Registry
//     lookups happen outside the hot path); a nil *Registry resolves every
//     name to a nil handle.
//   - The tracer never blocks: when its ring fills, further events are
//     dropped and counted instead of stalling the publisher.
//   - A per-access metric whose value is fixed per site need not publish
//     per access at all: the publisher counts occurrences in a plain field
//     and folds the count in once (Histogram.ObserveN, Counter.Add). The
//     simulated machine counts its scalar hierarchy probes per level this
//     way and folds them when a thread's counters are drained, so with
//     metrics on a probe costs one increment of a thread-local field.
//
// Handles are safe for concurrent publishers: counters and histogram
// buckets are atomics, the tracer ring is mutex-guarded.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// HistBuckets is the number of log2 histogram buckets: bucket i holds
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds exactly 0,
// bucket 1 holds 1, bucket 2 holds 2..3, bucket k holds 2^(k-1)..2^k-1, up
// to bucket 64 for values with the top bit set.
const HistBuckets = 65

// Histogram is a log-scale (power-of-two bucketed) histogram. The zero
// value is ready to use; a nil *Histogram discards all observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveN records the value v n times, with the same result as n calls
// of Observe(v), the sum wrapping alike. Safe on a nil receiver.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	h.buckets[bits.Len64(v)].Add(n)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// histJSON is the wire form of a snapshot: buckets serialise as sparse
// [bit-length, count] pairs in ascending order, so a 65-bucket histogram
// with three populated buckets costs three pairs, not 65 zeros.
type histJSON struct {
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler with the sparse bucket encoding.
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	j := histJSON{Count: s.Count, Sum: s.Sum}
	for i, n := range s.Buckets {
		if n != 0 {
			j.Buckets = append(j.Buckets, [2]uint64{uint64(i), n})
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler for the sparse bucket encoding.
func (s *HistSnapshot) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = HistSnapshot{Count: j.Count, Sum: j.Sum}
	for _, pair := range j.Buckets {
		if pair[0] >= HistBuckets {
			return fmt.Errorf("telemetry: histogram bucket %d out of range", pair[0])
		}
		s.Buckets[pair[0]] = pair[1]
	}
	return nil
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from the
// bucket boundaries: the largest value of the first bucket at or beyond the
// quantile rank. Exact for constant-valued metrics that land in one bucket.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			if i == 64 {
				return ^uint64(0)
			}
			return 1<<uint(i) - 1
		}
	}
	return ^uint64(0)
}

// Snapshot copies the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Registry resolves metric names to publishing handles. Resolution takes a
// lock and happens at construction time (machine.New, bench.Run); the
// returned handles are lock-free. A nil *Registry resolves every name to a
// nil handle, which is how a disabled metrics path costs one branch.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of a registry, with names sorted
// so exports are deterministic.
type MetricsSnapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// CounterNames returns the snapshot's counter names in sorted order.
func (s MetricsSnapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the snapshot's histogram names in sorted order.
func (s MetricsSnapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies the registry's current state (empty snapshot on nil).
func (r *Registry) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
