package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sgxbounds/internal/serve/frontdoor"
	"sgxbounds/internal/serve/resultier"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// storeCall is one timed call into the result tier.
type storeCall struct {
	key                 string
	put, miss, inSubmit bool
	start, end          time.Duration
}

// timedStore sits between the scheduler and the result tier
// (sched.ResultStore) and times every Get and Put. A Get made while a
// Submit for the same key is in progress, and before any other Get of it,
// is that Submit's warm check; later ones are the worker's.
type timedStore struct {
	tier *resultier.Tier
	tr   *tracer

	mu         sync.Mutex
	calls      []storeCall
	submitting map[string]bool
}

func (s *timedStore) Get(key, version string) ([]byte, store.Meta, bool) {
	miss := !s.tier.Contains(key, version)
	s.mu.Lock()
	inSubmit := s.submitting[key]
	s.submitting[key] = false
	s.mu.Unlock()
	t0 := s.tr.now()
	body, meta, ok := s.tier.Get(key, version)
	s.record(storeCall{key: key, miss: miss, inSubmit: inSubmit, start: t0, end: s.tr.now()})
	return body, meta, ok
}

func (s *timedStore) Put(key string, body []byte, meta store.Meta) error {
	t0 := s.tr.now()
	err := s.tier.Put(key, body, meta)
	s.record(storeCall{key: key, put: true, start: t0, end: s.tr.now()})
	return err
}

func (s *timedStore) Delete(key string) error { return s.tier.Delete(key) }

func (s *timedStore) record(c storeCall) {
	s.mu.Lock()
	s.calls = append(s.calls, c)
	s.mu.Unlock()
}

func (s *timedStore) mark(key string, on bool) {
	s.mu.Lock()
	if on {
		s.submitting[key] = true
	} else {
		delete(s.submitting, key)
	}
	s.mu.Unlock()
}

// submitCall is one timed Scheduler.Submit, attributed to the op whose
// Admit made it.
type submitCall struct {
	op         int
	start, end time.Duration
}

// timedBackend sits between the front door and the scheduler
// (frontdoor.Backend) and times every Submit. The harness serializes
// Admit calls, so current names the op being admitted.
type timedBackend struct {
	sc      *sched.Scheduler
	st      *timedStore
	tr      *tracer
	current int
	calls   map[int]submitCall
}

func (b *timedBackend) Submit(req sched.SubmitRequest) (*sched.Job, error) {
	key := req.StoreKey()
	b.st.mark(key, true)
	t0 := b.tr.now()
	j, err := b.sc.Submit(req)
	b.calls[b.current] = submitCall{op: b.current, start: t0, end: b.tr.now()}
	b.st.mark(key, false)
	return j, err
}

func (b *timedBackend) Accepting() bool { return b.sc.Accepting() }

// inprocOp is what the in-process harness observed for one op.
type inprocOp struct {
	op                      *op
	admit0, admit1, done, r time.Duration
	coalesced, fromStore    bool
	status                  sched.JobStatus
	body                    string
	profile                 *telemetry.RunProfile
	err                     error
}

// inprocRun is the traced serve-cold run through an in-process stack built
// from the serving layers' public constructors, in the order sgxd wires
// them: store.Open, resultier.New, sched.New (real engine, real journal),
// frontdoor.New.
type inprocRun struct {
	tr       *tracer
	reg      *telemetry.Registry
	store    *timedStore
	backend  *timedBackend
	outs     []inprocOp
	setup    time.Duration
	cpu      float64
	wall     time.Duration
	computed []float64
	distinct int
}

func serveColdInProcess(cfg config, ops []op, refs map[string]string, rep *report) (*inprocRun, error) {
	dir := filepath.Join(cfg.runDir, "inproc")
	in := &inprocRun{reg: telemetry.NewRegistry(), distinct: distinctCells(ops)}
	t0 := time.Now()
	in.tr = &tracer{origin: t0}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	in.store = &timedStore{tier: resultier.New(st, 64<<20, in.reg), tr: in.tr, submitting: map[string]bool{}}
	sc, err := sched.New(sched.Config{
		Store: in.store, Workers: 1, Backlog: 64, Metrics: in.reg,
		Journal: filepath.Join(dir, "journal.jsonl"),
	})
	if err != nil {
		return nil, err
	}
	in.backend = &timedBackend{sc: sc, st: in.store, tr: in.tr, calls: map[int]submitCall{}}
	door := frontdoor.New(frontdoor.Config{Backend: in.backend, RetryAfter: time.Second, Metrics: in.reg})
	in.setup = time.Since(t0)

	start := time.Now().Add(20 * time.Millisecond)
	in.tr.origin = start
	cpu0 := selfCPU()
	in.outs = make([]inprocOp, len(ops))
	var admitMu sync.Mutex
	var wg sync.WaitGroup
	for i := range ops {
		o := &ops[i]
		if d := time.Until(start.Add(o.At)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := inprocOp{op: o}
			admitMu.Lock()
			in.backend.current = o.Seq
			res.admit0 = in.tr.now()
			j, coalesced, err := door.Admit("default", o.Req)
			res.admit1 = in.tr.now()
			admitMu.Unlock()
			if err != nil {
				res.err = err
				in.outs[o.Seq] = res
				return
			}
			res.coalesced = coalesced
			select {
			case <-j.Done():
			case <-time.After(time.Until(start.Add(o.At + 60*time.Second))):
				res.err = errors.New("timed out")
				in.outs[o.Seq] = res
				return
			}
			res.done = in.tr.now()
			bundle, ok := j.Bundle()
			res.r = in.tr.now()
			res.status = j.Status()
			res.fromStore = res.status.FromStore
			if !ok {
				res.err = fmt.Errorf("job %s %s: %s", res.status.ID, res.status.State, res.status.Error)
			} else {
				res.body = bundle.Output
			}
			if !coalesced && !res.fromStore {
				res.profile, _ = j.Profile()
			}
			in.outs[o.Seq] = res
		}()
	}
	wg.Wait()
	in.cpu = selfCPU() - cpu0
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sc.Shutdown(ctx); err != nil {
		return nil, err
	}

	first := map[string]string{}
	for i := range in.outs {
		o := &in.outs[i]
		rep.attempted++
		k := o.op.key()
		switch {
		case o.err != nil:
			rep.fail("in-process op %d (%s): %v", o.op.Seq, o.op.Kind, o.err)
			continue
		case o.body != refs[k]:
			rep.fail("in-process op %d (%s): result differs from the reference", o.op.Seq, o.op.Kind)
			continue
		case first[k] != "" && first[k] != o.body:
			rep.fail("in-process op %d (%s): result differs from the first copy", o.op.Seq, o.op.Kind)
			continue
		}
		first[k] = o.body
		in.wall = max(in.wall, o.r)
		if !o.fromStore {
			in.computed = append(in.computed, ms(o.r-o.op.At))
		}
	}
	in.spans()
	return in, nil
}

// spans assembles each op's span tree from the harness's own timestamps
// and the wrappers' timed calls. An op's children tile its wall time:
// dispatch (generator lag), admit (with Submit and its warm check nested),
// then queue wait, the worker's warm recheck, compute, persist and settle
// for a job that ran, or the coalesced wait for one that attached to
// another. Worker-side spans start no earlier than Admit returned.
func (in *inprocRun) spans() {
	tr := in.tr
	byKey := map[string][]storeCall{}
	for _, c := range in.store.calls {
		byKey[c.key] = append(byKey[c.key], c)
	}
	for i := range in.outs {
		o := &in.outs[i]
		if o.err != nil {
			continue
		}
		seq, key := o.op.Seq, o.op.key()
		root := tr.add("op", -1, seq, o.op.At, o.r, o.op.Kind.String())
		tr.add("gen.dispatch", root, seq, o.op.At, o.admit0, "")
		admit := tr.add("frontdoor.admit", root, seq, o.admit0, o.admit1, "")
		sub, led := in.backend.calls[seq]
		var worker []storeCall
		if led {
			s := tr.add("sched.submit", admit, seq, sub.start, sub.end, "")
			for _, c := range byKey[key] {
				switch {
				case c.inSubmit && c.start >= sub.start && c.end <= sub.end:
					tr.add("resultier.get", s, seq, c.start, c.end, missLabel(c.miss))
				case c.start >= sub.start:
					worker = append(worker, c)
				}
			}
		}
		at := o.admit1
		clip := func(t time.Duration) time.Duration { return max(t, at) }
		switch {
		case o.coalesced:
			tr.add("coalesced.wait", root, seq, at, o.done, "")
		case led && !o.fromStore:
			var get, put *storeCall
			for k := range worker {
				c := &worker[k]
				if !c.put && get == nil {
					get = c
				} else if c.put && get != nil && put == nil {
					put = c
				}
			}
			if get == nil || put == nil {
				continue // a retry or a failure: no clean tiling, left out
			}
			tr.add("sched.queue_wait", root, seq, at, clip(get.start), "")
			tr.add("resultier.get", root, seq, clip(get.start), clip(get.end), missLabel(get.miss))
			compute := tr.add("sched.compute", root, seq, clip(get.end), clip(put.start), "")
			// The scheduler's own measure of the engine run, ending where the
			// persist began. checkEngine compares it with the gap the
			// wrappers timed around it, so it is left out when clipping
			// shortened that gap.
			if get.end >= at {
				engine := time.Duration(o.status.ElapsedMS) * time.Millisecond
				tr.add("bench.engine", compute, seq, put.start-engine, put.start, "")
			}
			tr.add("resultier.put", root, seq, clip(put.start), clip(put.end), "")
			at = clip(put.end)
			fallthrough
		default:
			tr.add("sched.settle", root, seq, at, o.done, "")
		}
		tr.add("result.read", root, seq, o.done, o.r, "")
	}
}

func missLabel(miss bool) string {
	if miss {
		return "lru-miss"
	}
	return "lru-hit"
}

// perLayer fills the serving and bench per-layer metrics from the traced
// run's spans, the wrappers' calls, the shared registry and the computed
// jobs' telemetry profiles.
func (in *inprocRun) perLayer(pl map[string]metric) {
	spans := in.tr.snapshot()
	self := selfTimes(spans)
	by := map[string][]float64{}
	var storeGet, queueWait []float64
	var computeTotal, wallTotal time.Duration
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[i]))
		switch s.Name {
		case "resultier.get":
			if s.Label == "lru-miss" {
				storeGet = append(storeGet, us(s.dur()))
			}
		case "sched.queue_wait":
			queueWait = append(queueWait, ms(s.dur()))
		case "sched.compute":
			computeTotal += s.dur()
		case "op":
			if s.Label == kindCold.String() || s.Label == kindGrid.String() {
				wallTotal += s.dur()
			}
		}
	}
	nsTo := func(xs []float64, unit time.Duration) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / float64(unit)
		}
		return out
	}
	var computeMS, cellMS []float64
	var accesses, checks, faults float64
	for i := range in.outs {
		o := &in.outs[i]
		if o.profile == nil {
			continue
		}
		computeMS = append(computeMS, float64(o.status.ElapsedMS))
		if o.status.Cells.Runs > 0 {
			cellMS = append(cellMS, float64(o.status.ElapsedMS)/float64(o.status.Cells.Runs))
		}
		for _, c := range o.profile.Cells {
			accesses += float64(c.Counters["run.loads"] + c.Counters["run.stores"])
			checks += float64(c.Counters["run.checks"])
			faults += float64(c.Counters["run.epc_faults"])
		}
	}
	puts := 0.0
	for _, c := range in.store.calls {
		if c.put {
			puts++
		}
	}
	snap := in.reg.Snapshot().Counters
	cnt := func(name string) float64 { return float64(snap[name]) }
	pl["frontdoor.admit_us_p50"] = metric{median(nsTo(by["frontdoor.admit"], time.Microsecond)), "us"}
	pl["sched.submit_us_p50"] = metric{median(nsTo(by["sched.submit"], time.Microsecond)), "us"}
	pl["sched.queue_wait_ms_p50"] = metric{percentile(queueWait, 50), "ms"}
	pl["sched.queue_wait_ms_p90"] = metric{percentile(queueWait, 90), "ms"}
	pl["sched.compute_ms_p50"] = metric{median(computeMS), "ms"}
	pl["resultier.get_us_p50"] = metric{median(nsTo(by["resultier.get"], time.Microsecond)), "us"}
	pl["store.get_us_p50"] = metric{median(storeGet), "us"}
	pl["store.put_ms_p50"] = metric{median(nsTo(by["resultier.put"], time.Millisecond)), "ms"}
	pl["store.reads"] = metric{cnt("cache.misses"), "count"}
	pl["store.writes"] = metric{puts, "count"}
	pl["resultier.hit_ratio"] = metric{ratio(cnt("cache.hits"), cnt("cache.hits")+cnt("cache.misses")), "ratio"}
	pl["frontdoor.coalesced"] = metric{cnt("coalesced"), "count"}
	pl["frontdoor.coalesce_ratio"] = metric{ratio(cnt("coalesced"), cnt("coalesced")+cnt("admitted")), "ratio"}
	pl["frontdoor.rejected"] = metric{cnt("rejected"), "count"}
	pl["sched.jobs_completed"] = metric{cnt("jobs.completed"), "count"}
	pl["sched.jobs_retried"] = metric{cnt("jobs.retried"), "count"}
	pl["sched.jobs_failed"] = metric{cnt("jobs.failed"), "count"}
	pl["bench.cells_run"] = metric{cnt("cells.run"), "count"}
	pl["bench.cells_cached"] = metric{cnt("cells.cached"), "count"}
	pl["bench.recompute_ratio"] = metric{ratio(cnt("cells.run"), float64(in.distinct)), "ratio"}
	pl["bench.cell_ms_p50"] = metric{median(cellMS), "ms"}
	pl["bench.outside_cells_share"] = metric{ratio(float64(wallTotal-computeTotal), float64(wallTotal)), "ratio"}
	pl["sim.accesses"] = metric{accesses, "count"}
	pl["sim.checks"] = metric{checks, "count"}
	pl["sim.epc_faults"] = metric{faults, "count"}
	pl["machine.ns_per_access"] = metric{ratio(float64(computeTotal), accesses), "ns"}
}

// endToEnd is the traced run's own end-to-end set, printed beside the
// untraced one.
func (in *inprocRun) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":    {in.setup.Seconds(), "s"},
		"wall_s":     {in.wall.Seconds(), "s"},
		"cpu_s":      {in.cpu, "s"},
		"lat_p50_ms": {percentile(in.computed, 50), "ms"},
		"lat_p90_ms": {percentile(in.computed, 90), "ms"},
	}
}
