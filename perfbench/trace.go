package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one op share its op id; Parent is -1 for an
// op's root span.
type span struct {
	ID, Parent, Op int
	Name, Label    string
	Start, End     time.Duration // from the tracer's origin
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the current offset from the tracer's origin.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Duration, label string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Label: label, Start: start, End: end})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// reconcile checks, for every root span, that the self times of its whole
// subtree add up to its wall time, and returns the largest relative
// difference. Children outside their parent or overlapping siblings make
// the sums disagree.
func reconcile(spans []span) float64 {
	self := selfTimes(spans)
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	sums := map[int]time.Duration{}
	for i := range spans {
		r := i
		for spans[r].Parent >= 0 {
			r = index[spans[r].Parent]
		}
		sums[r] += self[i]
	}
	worst := 0.0
	for r, total := range sums {
		wall := spans[r].dur()
		if wall <= 0 {
			continue
		}
		diff := float64(total-wall) / float64(wall)
		if diff < 0 {
			diff = -diff
		}
		worst = max(worst, diff)
	}
	return worst
}

// reconcileTolerance is how far an op's summed self times may stray from
// its wall time before the traced run fails its check.
const reconcileTolerance = 0.01

// The engine-time check. reconcile holds for any tree whose spans tile
// their parents, so it cannot tell a complete tree from one that lost a
// layer. A computed serve-cold job is also measured independently: its
// sched.compute span is the gap the wrappers timed from the worker's warm
// recheck returning to the persist starting, and its bench.engine child is
// the scheduler's own measure of the engine run (JobStatus.ElapsedMS,
// truncated to the millisecond). Besides the engine run, the gap holds only
// the journal's "started" record and the attempt's set-up, about 0.3 ms on
// an ext4 disk, so the remainder gap - engine lies between 0 and about
// 1.3 ms. The time of a layer missing from the tree (an untimed persist,
// say) lands in that remainder, and an engine time that does not fit in
// its gap makes it negative. The traced run fails when the median
// remainder over its computed jobs is negative or above engineSlack; a
// median, so that one stalled fsync or preempted worker does not fail a
// run.
const engineSlack = 3 * time.Millisecond

// checkEngine returns the median of compute gap - engine time over the
// bench.engine spans, and how many there are.
func checkEngine(spans []span) (rest time.Duration, checked int) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rests []float64
	for _, s := range spans {
		if s.Name == "bench.engine" {
			rests = append(rests, float64(byID[s.Parent].dur()-s.dur()))
		}
	}
	return time.Duration(median(rests)), len(rests)
}

// write exports the spans as Chrome trace JSON (complete events, one
// thread per op) under .bench_build/traces and checks reconciliation.
func (t *tracer) write(cfg config, rep *report) error {
	spans := t.snapshot()
	if worst := reconcile(spans); worst > reconcileTolerance {
		rep.fail("trace: self times differ from op wall time by %.2f%%", worst*100)
	} else {
		rep.diag["trace.reconcile_err"] = metric{worst, "ratio"}
	}
	if rest, n := checkEngine(spans); n > 0 && (rest < 0 || rest > engineSlack) {
		rep.fail("trace: compute gaps exceed the scheduler's engine time by a median %s (want 0 to %s)", rest, engineSlack)
	} else if n > 0 {
		rep.diag["trace.engine_rest_ms"] = metric{ms(rest), "ms"}
	}
	type event struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Args  map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		if s.Label != "" {
			args["label"] = s.Label
		}
		events = append(events, event{Name: s.Name, Phase: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Op, Args: args})
	}
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
		Unit        string  `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}
