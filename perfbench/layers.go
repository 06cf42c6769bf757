package main

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// Per-layer metrics, grouped by the layer that produces them. A traced run
// prints all of them; a layer the workload does not run reports 0
// (NOTES.md lists which workload exercises which layer). BENCHMARK.json's
// per_layer list is this list.
var (
	simMetrics = []layerMetric{
		{"machine.ns_per_access", "ns"}, {"machine.load_ns.l1", "ns"}, {"machine.load_ns.llc", "ns"},
		{"machine.load_ns.epc", "ns"}, {"machine.touch_ns_per_line", "ns"},
		{"cache.access_line_ns.hit", "ns"}, {"cache.access_line_ns.miss", "ns"},
		{"mem.load_ns", "ns"}, {"enclave.touch_ns.resident", "ns"}, {"enclave.touch_ns.fault", "ns"},
		{"harden.load_at_ns.sgx", "ns"}, {"harden.load_at_ns.sgxbounds", "ns"},
		{"harden.load_at_ns.asan", "ns"}, {"harden.load_at_ns.mpx", "ns"},
		{"telemetry.overhead_ratio", "ratio"},
	}
	benchMetrics = []layerMetric{
		{"bench.cells_run", "count"}, {"bench.cells_cached", "count"}, {"bench.cell_ms_p50", "ms"},
		{"bench.outside_cells_share", "ratio"}, {"bench.recompute_ratio", "ratio"},
		{"sim.accesses", "count"}, {"sim.checks", "count"}, {"sim.epc_faults", "count"},
	}
	servingMetrics = []layerMetric{
		{"serve.submit_rtt_ms_p50", "ms"}, {"serve.result_rtt_ms_p50", "ms"},
		{"frontdoor.admit_us_p50", "us"}, {"frontdoor.coalesced", "count"},
		{"frontdoor.coalesce_ratio", "ratio"}, {"frontdoor.rejected", "count"},
		{"sched.submit_us_p50", "us"}, {"sched.queue_wait_ms_p50", "ms"}, {"sched.queue_wait_ms_p90", "ms"},
		{"sched.compute_ms_p50", "ms"}, {"sched.jobs_completed", "count"},
		{"sched.jobs_retried", "count"}, {"sched.jobs_failed", "count"},
		{"resultier.get_us_p50", "us"}, {"resultier.hit_ratio", "ratio"},
		{"store.get_us_p50", "us"}, {"store.put_ms_p50", "ms"}, {"store.reads", "count"}, {"store.writes", "count"},
	}
	clusterMetrics = []layerMetric{
		{"cluster.forward_share", "ratio"}, {"cluster.forward_extra_ms_p50", "ms"},
		{"cluster.proxy_rtt_ms_p50", "ms"}, {"cluster.peer_fetches", "count"},
		{"cluster.hedged_fetches", "count"}, {"cluster.steals", "count"},
		{"cluster.breaker_opens", "count"}, {"cluster.forward_fallback", "count"},
		{"cluster.heartbeats", "count"}, {"cluster.duplicate_computes", "count"},
	}
	diagMetrics = []layerMetric{
		{"lat_p50_ms", "ms"}, {"lat_p90_ms", "ms"}, {"lat_p99_ms", "ms"}, {"lat_p99_samples", "count"},
		{"host.steal_s", "s"}, {"gen.late_ms_p99", "ms"}, {"gen.issued_share", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}
	perLayerMetrics = concat(simMetrics, benchMetrics, servingMetrics, clusterMetrics, diagMetrics)
)

func concat(lists ...[]layerMetric) []layerMetric {
	var out []layerMetric
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// zeroAbsent reports 0 for every metric of a layer the workload does not
// run.
func zeroAbsent(pl map[string]metric, layer []layerMetric) {
	for _, m := range layer {
		if _, ok := pl[m.name]; !ok {
			pl[m.name] = metric{0, m.unit}
		}
	}
}

// copyDiag moves the host and generator diagnostics into the per-layer set.
func copyDiag(rep *report) {
	for _, m := range diagMetrics {
		if v, ok := rep.diag[m.name]; ok {
			rep.perLayer[m.name] = v
		}
	}
}
