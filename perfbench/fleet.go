package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// fleetNodes is the fleet size: one sgxd per core of a two-core host.
const fleetNodes = 2

// fleetRate is the fleet workload's fixed offered load in ops per second: a
// quarter of the two-node fleet's measured capacity of about 600 ops/s, not
// half, because at 300 ops/s host steal multiplied the warm latency
// (NOTES.md).
const fleetRate = 150

// fleetColdShare is the share of fleet ops that are cold XS jobs.
const fleetColdShare = 0.01

// fleetWarmWorkloads and fleetColdWorkloads pick cheap XS cells (2-4 ms
// and 7-24 ms under every policy), so that set-up and the cold ops add
// little compute: the 12 warm keys set-up computes, and the 24 cells the
// cold ops draw from.
var (
	fleetWarmWorkloads = []string{"gobmk", "h264ref", "x264"}
	fleetColdWorkloads = []string{"linear_regression", "fluidanimate", "string_match", "libquantum", "blackscholes", "ptrchase"}
)

func fleetCells(names []string) []cell {
	var out []cell
	for _, c := range allCells("XS") {
		for _, n := range names {
			if c.workload == n {
				out = append(out, c)
			}
		}
	}
	return out
}

// fleetSchedule builds the seeded open-loop schedule: Poisson arrivals at
// fleetRate over span, round-robin across the nodes; a seeded fleetColdShare
// of them are cold XS jobs (each pool cell at most once, in seeded order),
// the rest repeat uniformly chosen warm keys.
func fleetSchedule(seed int64, span time.Duration) []op {
	rng := rand.New(rand.NewSource(seed))
	warm := fleetCells(fleetWarmWorkloads)
	cold := fleetCells(fleetColdWorkloads)
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	n := int(fleetRate * span.Seconds())
	at := arrivals(rng, n, span)
	nCold := min(len(cold), int(float64(n)*fleetColdShare+0.5))
	coldSlot := map[int]bool{}
	for len(coldSlot) < nCold {
		coldSlot[rng.Intn(n)] = true
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Seq: i, At: at[i], Node: i % fleetNodes, Kind: kindWarm}
		if coldSlot[i] {
			ops[i].Kind = kindCold
			ops[i].Req = cold[0].req()
			cold = cold[1:]
		} else {
			ops[i].Req = warm[rng.Intn(len(warm))].req()
		}
	}
	return ops
}

// fleet is a running set of sgxd nodes joined by -peers.
type fleet struct {
	nodes []*node
	peers string
}

func newFleet(cfg config, dir string) (*fleet, error) {
	f := &fleet{}
	var peers []string
	for i := 0; i < fleetNodes; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n, err := newNode(filepath.Join(cfg.bin, "sgxd"), id, filepath.Join(dir, id))
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		peers = append(peers, id+"="+n.url)
	}
	f.peers = strings.Join(peers, ",")
	return f, nil
}

// boot starts every node over its store and journal and waits until each
// is ready and sees the whole membership alive.
func (f *fleet) boot() error {
	for _, n := range f.nodes {
		if err := n.start("-node-id", n.id, "-peers", f.peers); err != nil {
			f.stop()
			return err
		}
	}
	for _, n := range f.nodes {
		if err := n.waitReady(30 * time.Second); err != nil {
			f.stop()
			return err
		}
	}
	stop := time.Now().Add(30 * time.Second)
	for _, n := range f.nodes {
		for {
			if n.clusterConverged(len(f.nodes)) {
				break
			}
			if time.Now().After(stop) {
				f.stop()
				return fmt.Errorf("fleet membership did not converge")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, n := range f.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.stop()
		}(n)
	}
	wg.Wait()
}

// warmUp computes every warm key through the fleet, all submitted at once,
// round-robin, and returns the ops it sent.
func (f *fleet) warmUp() ([]op, error) {
	warm := fleetCells(fleetWarmWorkloads)
	ops := make([]op, len(warm))
	for i, c := range warm {
		ops[i] = op{Seq: i, Node: i % len(f.nodes), Kind: kindCold, Req: c.req()}
	}
	urls := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		urls[i] = n.url
	}
	c := newClient(urls, 60*time.Second)
	defer c.close()
	for _, o := range c.run(ops, time.Now()) {
		if o.err != nil {
			return nil, fmt.Errorf("fleet warm-up op %d: %w", o.op.Seq, o.err)
		}
	}
	return ops, nil
}

// fleetFresh is how many fresh fleets set-up boots and warms; the last one
// serves the timed phase. fleetRestarts is how many times set-up then
// restarts that one over its stores. The warm-up (about 80 ms for the 12
// warm keys, most of it compute and fsyncs) is most of the set-up time and
// moves with the host, so set-up reports medians over both.
const (
	fleetFresh    = 5
	fleetRestarts = 7
)

// fleetSetupTimes is what one fleet set-up spent, in seconds.
type fleetSetupTimes struct {
	boots, warmUps, restarts []float64
}

// total is the set-up time: the median first boot plus warm-up of a fresh
// fleet, plus the median restart (boot, journal replay and membership
// convergence).
func (t fleetSetupTimes) total() float64 {
	fresh := make([]float64, len(t.boots))
	for i := range t.boots {
		fresh[i] = t.boots[i] + t.warmUps[i]
	}
	return median(fresh) + median(t.restarts)
}

// fleetSetup boots fleetFresh fresh fleets in turn, computes the warm keys
// through each and stops all but the last, then restarts the last one over
// its stores fleetRestarts times.
func fleetSetup(cfg config, dir string) (*fleet, []op, fleetSetupTimes, error) {
	var times fleetSetupTimes
	var f *fleet
	var warm []op
	for i := 0; i < fleetFresh; i++ {
		if f != nil {
			f.stop()
		}
		var err error
		if f, err = newFleet(cfg, filepath.Join(dir, fmt.Sprint(i))); err != nil {
			return nil, nil, times, err
		}
		t0 := time.Now()
		if err := f.boot(); err != nil {
			return nil, nil, times, err
		}
		times.boots = append(times.boots, time.Since(t0).Seconds())
		t0 = time.Now()
		if warm, err = f.warmUp(); err != nil {
			f.stop()
			return nil, nil, times, err
		}
		times.warmUps = append(times.warmUps, time.Since(t0).Seconds())
	}
	for r := 0; r < fleetRestarts; r++ {
		f.stop()
		t := time.Now()
		if err := f.boot(); err != nil {
			return nil, nil, times, err
		}
		times.restarts = append(times.restarts, time.Since(t).Seconds())
	}
	return f, warm, times, nil
}

// fleetRun is one fleet run over HTTP: set-up, the timed phase, stop.
func fleetRun(cfg config, ops []op, dir string) (*httpRun, []op, fleetSetupTimes, error) {
	f, warm, times, err := fleetSetup(cfg, dir)
	if err != nil {
		return nil, nil, times, err
	}
	defer f.stop()
	run, err := measure(f.nodes, ops)
	if err != nil {
		return nil, nil, times, err
	}
	run.setup = times.total()
	return run, warm, times, nil
}

// warmOp selects the ops that repeat a warm key (the fleet's latency
// population; the cold XS ops are a different one).
func warmOp(o *outcome) bool { return o.op.Kind == kindWarm }

func runFleet(cfg config) (*report, error) {
	span := time.Duration(cfg.seconds) * time.Second
	ops := fleetSchedule(cfg.seed, span)
	rep := newReport()
	run, warm, times, err := fleetRun(cfg, ops, filepath.Join(cfg.runDir, "fleet"))
	if err != nil {
		return nil, err
	}
	refs, err := references(append(append([]op(nil), warm...), ops...))
	if err != nil {
		return nil, err
	}
	checkOutcomes(rep, run.outs, refs)
	run.endToEnd(rep, warmOp)
	rep.diag["fleet.boot_s"] = metric{median(times.boots), "s"}
	rep.diag["fleet.warm_up_s"] = metric{median(times.warmUps), "s"}
	rep.diag["fleet.restart_s"] = metric{median(times.restarts), "s"}
	if !cfg.trace {
		return rep, nil
	}

	// Traced run: the same schedule on a fresh fleet, with client-side
	// spans around every call the generator makes.
	traced, _, _, err := fleetRun(cfg, ops, filepath.Join(cfg.runDir, "fleet-traced"))
	if err != nil {
		return nil, err
	}
	checkOutcomes(rep, traced.outs, refs)
	tr := newTracer()
	for i := range traced.outs {
		o := &traced.outs[i]
		if o.err != nil {
			continue
		}
		seq := o.op.Seq
		sent := o.op.At + o.late
		root := tr.add("op", -1, seq, o.op.At, o.done, o.op.Kind.String())
		tr.add("gen.dispatch", root, seq, o.op.At, sent, "")
		tr.add("serve.submit", root, seq, sent, o.submitEnd, "")
		tr.add("serve.wait", root, seq, o.submitEnd, o.resultStart, "")
		tr.add("serve.result", root, seq, o.resultStart, o.done, "")
	}
	var coldOps []op
	for _, o := range ops {
		if o.Kind == kindCold {
			coldOps = append(coldOps, o)
		}
	}
	traced.distinctCells = distinctCells(coldOps)
	pl := rep.perLayer
	traced.servingMetrics(pl)
	clusterLayer(pl, traced, ops)
	var tracedLat []float64
	for i := range traced.outs {
		if o := &traced.outs[i]; o.err == nil && warmOp(o) {
			tracedLat = append(tracedLat, ms(o.latency()))
		}
	}
	pl["trace.overhead_ratio"] = metric{ratio(percentile(tracedLat, 50), rep.diag["lat_p50_ms"].Value), "ratio"}
	runProbes(pl)
	copyDiag(rep)
	zeroAbsent(pl, simMetrics)
	zeroAbsent(pl, benchMetrics)
	zeroAbsent(pl, servingMetrics)
	printMetrics("untraced_end_to_end", rep.endToEnd)
	printMetrics("traced_end_to_end", map[string]metric{
		"setup_s":     {traced.setup, "s"},
		"wall_s":      {traced.wall, "s"},
		"cpu_s":       {traced.cpu, "s"},
		"peak_rss_mb": {traced.rss, "MB"},
		"lat_p50_ms":  {percentile(tracedLat, 50), "ms"},
		"lat_p90_ms":  {percentile(tracedLat, 90), "ms"},
	})
	return rep, tr.write(cfg, rep)
}

// clusterLayer fills the cluster per-layer metrics: /metrics deltas summed
// over the nodes, plus client-side splits of warm ops by whether the node
// that executed the job (JobStatus.Node) is the one the op contacted.
func clusterLayer(pl map[string]metric, run *httpRun, ops []op) {
	m := run.metrics
	var local, remote, proxied []float64
	for i := range run.outs {
		o := &run.outs[i]
		if o.err != nil || o.op.Kind != kindWarm {
			continue
		}
		if o.status.Node == fmt.Sprintf("n%d", o.op.Node+1) {
			local = append(local, ms(o.latency()))
		} else {
			remote = append(remote, ms(o.latency()))
			proxied = append(proxied, ms(o.resultRTT))
		}
	}
	coldKeys := map[string]bool{}
	for i := range ops {
		if ops[i].Kind == kindCold {
			coldKeys[ops[i].key()] = true
		}
	}
	pl["cluster.forward_share"] = metric{ratio(m["sgxd_cluster_forwarded_total"], float64(len(ops))), "ratio"}
	pl["cluster.forward_extra_ms_p50"] = metric{median(remote) - median(local), "ms"}
	pl["cluster.proxy_rtt_ms_p50"] = metric{median(proxied), "ms"}
	pl["cluster.peer_fetches"] = metric{m["sgxd_peer_fetches_total"], "count"}
	pl["cluster.hedged_fetches"] = metric{m["sgxd_cluster_hedged_fetches_total"], "count"}
	pl["cluster.steals"] = metric{m["sgxd_steals_total"], "count"}
	pl["cluster.breaker_opens"] = metric{m["sgxd_cluster_breaker_opens_total"], "count"}
	pl["cluster.forward_fallback"] = metric{m["sgxd_cluster_forward_fallback_total"], "count"}
	pl["cluster.heartbeats"] = metric{m["sgxd_cluster_heartbeats_sent_total"], "count"}
	pl["cluster.duplicate_computes"] = metric{m["sgxd_jobs_completed_total"] - float64(len(coldKeys)), "count"}
}
