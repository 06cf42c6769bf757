package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// serveColdParts is how many fresh daemons a serve-cold run uses in turn.
// Each serves a fixed share of the jobs over an equal share of the span,
// and peak RSS is summed over them, as over a fleet's nodes: the daemons'
// peaks differ with the jobs in their share (25-47 MB), and the middle
// one varied by a quarter from run to run with the GC's timing, their sum
// by under a tenth.
const serveColdParts = 3

// serveColdBoots is how many fresh daemons serve-cold boots in all: the
// serving ones and throwaway ones that are stopped as soon as they are
// ready. A boot takes about 10 ms, so the median of many is cheap and
// steadier than the median of the serving three.
const serveColdBoots = 15

// httpRun is what a serving run over HTTP measured.
type httpRun struct {
	outs             []outcome
	setup            float64 // s
	cpu, rss, wall   float64 // s, MB, s
	steal            float64 // s
	metrics          map[string]float64
	distinctCells    int
	computed, warmed []float64 // latency (ms) of the two op populations
}

// add folds one part's run into r (the caller sets setup).
func (r *httpRun) add(p *httpRun) {
	r.outs = append(r.outs, p.outs...)
	r.cpu += p.cpu
	r.rss += p.rss
	r.wall += p.wall
	r.steal += p.steal
	for k, v := range p.metrics {
		r.metrics[k] += v
	}
	r.computed = append(r.computed, p.computed...)
	r.warmed = append(r.warmed, p.warmed...)
}

// bootFresh starts a default-flag sgxd (journal on) over an empty store in
// dir and returns it ready, with the time from launch to /readyz.
func bootFresh(cfg config, dir string) (*node, float64, error) {
	n, err := newNode(filepath.Join(cfg.bin, "sgxd"), "n1", dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := n.start(); err != nil {
		return nil, 0, err
	}
	if err := n.waitReady(30 * time.Second); err != nil {
		n.stop()
		return nil, 0, err
	}
	return n, time.Since(t0).Seconds(), nil
}

// serveColdHTTP boots the throwaway daemons, then runs each part on its own
// freshly booted sgxd (default flags, journal on, empty store on the
// checkout's filesystem), in turn.
func serveColdHTTP(cfg config, parts [][]op) (*httpRun, error) {
	total := &httpRun{metrics: map[string]float64{}}
	var boots []float64
	for k := len(parts); k < serveColdBoots; k++ {
		n, boot, err := bootFresh(cfg, filepath.Join(cfg.runDir, fmt.Sprintf("boot-%d", k)))
		if err != nil {
			return nil, err
		}
		n.stop()
		boots = append(boots, boot)
	}
	for k, ops := range parts {
		n, boot, err := bootFresh(cfg, filepath.Join(cfg.runDir, fmt.Sprintf("sgxd-%d", k)))
		if err != nil {
			return nil, err
		}
		boots = append(boots, boot)
		run, err := measure([]*node{n}, ops)
		n.stop()
		if err != nil {
			return nil, err
		}
		total.add(run)
	}
	total.setup = median(boots)
	return total, nil
}

// measure runs the timed phase against already-booted nodes: CPU and
// /metrics are read just before the first scheduled send and just after the
// last result, and the generator splits ops into the computed and the warm
// (served from a store) populations.
func measure(nodes []*node, ops []op) (*httpRun, error) {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	c := newClient(urls, 60*time.Second)
	defer c.close()

	run := &httpRun{metrics: map[string]float64{}}
	before := make([]map[string]float64, len(nodes))
	cpu0 := 0.0
	for i, n := range nodes {
		m, err := n.metrics()
		if err != nil {
			return nil, err
		}
		before[i] = m
		cpu, err := n.cpuSeconds()
		if err != nil {
			return nil, err
		}
		cpu0 += cpu
	}
	steal0 := hostSteal()
	start := time.Now().Add(20 * time.Millisecond)
	run.outs = c.run(ops, start)
	for i := range run.outs {
		run.wall = max(run.wall, run.outs[i].done.Seconds())
	}
	run.steal = hostSteal() - steal0
	for i, n := range nodes {
		cpu, err := n.cpuSeconds()
		if err != nil {
			return nil, err
		}
		run.cpu += cpu
		rss, err := n.peakRSSMB()
		if err != nil {
			return nil, err
		}
		run.rss += rss
		m, err := n.metrics()
		if err != nil {
			return nil, err
		}
		for k, v := range metricDelta(before[i], m) {
			run.metrics[k] += v
		}
	}
	run.cpu -= cpu0
	for i := range run.outs {
		o := &run.outs[i]
		if o.err != nil {
			continue
		}
		if o.fromStore {
			run.warmed = append(run.warmed, ms(o.latency()))
		} else {
			run.computed = append(run.computed, ms(o.latency()))
		}
	}
	return run, nil
}

// endToEnd fills the end-to-end metrics and the diagnostics from a serving
// run. keep selects the op population the latency percentiles are taken
// over.
func (run *httpRun) endToEnd(rep *report, keep func(*outcome) bool) {
	var lat []float64
	for i := range run.outs {
		if o := &run.outs[i]; o.err == nil && keep(o) {
			lat = append(lat, ms(o.latency()))
		}
	}
	rep.endToEnd["setup_s"] = metric{run.setup, "s"}
	rep.endToEnd["wall_s"] = metric{run.wall, "s"}
	rep.endToEnd["cpu_s"] = metric{run.cpu, "s"}
	rep.endToEnd["peak_rss_mb"] = metric{run.rss, "MB"}
	latencyDiag(rep, lat)
	rep.diag["host.steal_s"] = metric{run.steal, "s"}
	rep.diag["lat.computed_samples"] = metric{float64(len(run.computed)), "count"}
	rep.diag["lat.warm_samples"] = metric{float64(len(run.warmed)), "count"}
	rep.diag["lat.warm_p50_ms"] = metric{percentile(run.warmed, 50), "ms"}
	generatorDiag(rep, run.outs)
}

// latencyDiag reports an op population's latency percentiles (nearest
// rank) with its sample count.
func latencyDiag(rep *report, lat []float64) {
	rep.diag["lat_p50_ms"] = metric{percentile(lat, 50), "ms"}
	rep.diag["lat_p90_ms"] = metric{percentile(lat, 90), "ms"}
	rep.diag["lat_p99_ms"] = metric{percentile(lat, 99), "ms"}
	rep.diag["lat_p99_samples"] = metric{float64(len(lat)), "count"}
}

// servingMetrics fills the per-layer metrics one HTTP run yields: client
// round trips and the daemons' /metrics deltas.
func (run *httpRun) servingMetrics(pl map[string]metric) {
	var submit, result []float64
	for i := range run.outs {
		o := &run.outs[i]
		if o.err == nil {
			submit = append(submit, ms(o.submitRTT))
			result = append(result, ms(o.resultRTT))
		}
	}
	m := run.metrics
	pl["serve.submit_rtt_ms_p50"] = metric{median(submit), "ms"}
	pl["serve.result_rtt_ms_p50"] = metric{median(result), "ms"}
	pl["frontdoor.coalesced"] = metric{m["sgxd_coalesced_total"], "count"}
	pl["frontdoor.coalesce_ratio"] = metric{ratio(m["sgxd_coalesced_total"], m["sgxd_coalesced_total"]+m["sgxd_admitted_total"]), "ratio"}
	pl["frontdoor.rejected"] = metric{m["sgxd_rejected_total"], "count"}
	pl["sched.jobs_completed"] = metric{m["sgxd_jobs_completed_total"], "count"}
	pl["sched.jobs_retried"] = metric{m["sgxd_jobs_retried_total"], "count"}
	pl["sched.jobs_failed"] = metric{m["sgxd_jobs_failed_total"], "count"}
	pl["store.reads"] = metric{m["sgxd_cache_misses_total"], "count"}
	pl["store.writes"] = metric{m["sgxd_store_entries"], "count"}
	pl["resultier.hit_ratio"] = metric{ratio(m["sgxd_cache_hits_total"], m["sgxd_cache_hits_total"]+m["sgxd_cache_misses_total"]), "ratio"}
	pl["bench.cells_run"] = metric{m["sgxd_cells_run_total"], "count"}
	pl["bench.cells_cached"] = metric{m["sgxd_cells_cached_total"], "count"}
	pl["bench.recompute_ratio"] = metric{ratio(m["sgxd_cells_run_total"], float64(run.distinctCells)), "ratio"}
}

// computed selects the ops that ran, or coalesced onto, a simulation.
func computed(o *outcome) bool { return !o.fromStore }

// distinctCells counts the distinct grid cells the schedule asks for.
func distinctCells(ops []op) int {
	seen := map[cell]bool{}
	for _, o := range ops {
		for _, w := range o.Req.Workloads {
			for _, p := range o.Req.Policies {
				seen[cell{w, p, o.Req.Size}] = true
			}
		}
	}
	return len(seen)
}

func runServeCold(cfg config) (*report, error) {
	span := time.Duration(cfg.seconds) * time.Second
	parts := serveColdSchedules(cfg.seed, span, defaultServeColdMix())
	all := joinParts(parts, span/serveColdParts)
	rep := newReport()
	run, err := serveColdHTTP(cfg, parts)
	if err != nil {
		return nil, err
	}
	run.distinctCells = distinctCells(all)
	refs, err := references(all)
	if err != nil {
		return nil, err
	}
	checkOutcomes(rep, run.outs, refs)
	// The computed population: jobs that ran (or coalesced onto) a
	// simulation. Warm repeats are reported on their own.
	run.endToEnd(rep, computed)
	if !cfg.trace {
		return rep, nil
	}

	pl := rep.perLayer
	in, err := serveColdInProcess(cfg, all, refs, rep)
	if err != nil {
		return nil, err
	}
	in.perLayer(pl)
	// Counters come from the daemons' /metrics (the untraced run); the
	// in-process stack's registry holds the same counts.
	run.servingMetrics(pl)
	pl["trace.overhead_ratio"] = metric{ratio(percentile(in.computed, 50), percentile(run.computed, 50)), "ratio"}
	runProbes(pl)
	copyDiag(rep)
	zeroAbsent(pl, benchMetrics)
	zeroAbsent(pl, clusterMetrics)
	printMetrics("untraced_end_to_end", rep.endToEnd)
	printMetrics("traced_end_to_end", in.endToEnd())
	return rep, in.tr.write(cfg, rep)
}
