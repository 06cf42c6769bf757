package bench

import (
	"fmt"
	"io"
	"sync/atomic"

	"sgxbounds/internal/apps/httpd"
	"sgxbounds/internal/apps/kvcache"
	"sgxbounds/internal/apps/wserv"
	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/telemetry"
)

// CyclesPerSecond converts simulated cycles to simulated wall-clock time
// (the paper's testbed runs at 3.6 GHz).
const CyclesPerSecond = 3.6e9

// AppBudget is the per-application enclave size for the network case
// studies (SCONE sizes enclaves per application).
const AppBudget = 64 << 20

// AppWorkers is the server thread count per application: Memcached runs 4
// workers, Apache a prefork-style pool, Nginx a single event loop (§7).
var AppWorkers = map[string]int{"memcached": 4, "apache": 8, "nginx": 1}

// AppResult is one (app, policy) measurement.
type AppResult struct {
	App           string
	Policy        string
	ServiceCycles float64 // average cycles per request on one worker
	PeakReserved  uint64
	PageFaults    uint64
	Outcome       harden.Outcome
}

// Throughput returns the saturated throughput (requests/simulated-second)
// with the app's worker count.
func (r AppResult) Throughput() float64 {
	if r.ServiceCycles == 0 || r.Outcome.Crashed() {
		return 0
	}
	return float64(AppWorkers[r.App]) * CyclesPerSecond / r.ServiceCycles
}

// Latency returns the closed-loop average latency (ms) at the given client
// count: service time while below saturation, queueing growth beyond it.
func (r AppResult) Latency(clients int) float64 {
	if r.ServiceCycles == 0 || r.Outcome.Crashed() {
		return 0
	}
	w := AppWorkers[r.App]
	lat := r.ServiceCycles
	if clients > w {
		lat = r.ServiceCycles * float64(clients) / float64(w)
	}
	return lat / CyclesPerSecond * 1000
}

// MeasureApp runs `requests` requests of one app under one policy and
// returns the per-request cost.
func MeasureApp(app, policy string, requests int) AppResult {
	return measureApp(app, policy, requests, nil, nil)
}

func measureApp(app, policy string, requests int, tel *telemetry.Profile, cancel *atomic.Bool) AppResult {
	cfg := machine.DefaultConfig()
	cfg.MemoryBudget = AppBudget
	cfg.Tel = tel
	cfg.Cancel = cancel
	res := AppResult{App: app, Policy: policy}
	m := simulate(cfg, policy, core.AllOptimizations(), func(c *harden.Ctx) {
		warmup := requests / 4
		var startCycles uint64
		switch app {
		case "memcached":
			srv := kvcache.NewServer(c, 4096, 16384)
			r := uint64(0xBEE5)
			val := make([]byte, 120)
			for k := uint64(0); k < 16384; k++ { // memaslap prepopulation
				srv.Handle(kvcache.EncodeRequest(kvcache.OpSet, k*20000/16384, val))
			}
			for i := 0; i < requests+warmup; i++ {
				if i == warmup {
					startCycles = c.T.C.Cycles
				}
				r = r*6364136223846793005 + 1442695040888963407
				key := r % 20000
				if r%10 == 0 { // memaslap's 90/10 get/set mix
					srv.Handle(kvcache.EncodeRequest(kvcache.OpSet, key, val))
				} else {
					srv.Handle(kvcache.EncodeRequest(kvcache.OpGet, key, nil))
				}
			}
		case "apache":
			srv := httpd.NewServer(c)
			hdr := []byte("GET /index.html HTTP/1.1\nHost: example.com\nAccept: */*\nConnection: keep-alive\n")
			for i := 0; i < requests+warmup; i++ {
				if i == warmup {
					startCycles = c.T.C.Cycles
				}
				srv.ServeRequest(hdr)
			}
		case "nginx":
			srv := wserv.NewServer(c)
			req := []byte("GET /index.html HTTP/1.1\nHost: example.com\n")
			for i := 0; i < requests+warmup; i++ {
				if i == warmup {
					startCycles = c.T.C.Cycles
				}
				srv.ServeRequest(req)
			}
		default:
			panic(fmt.Sprintf("unknown app %q", app))
		}
		res.ServiceCycles = float64(c.T.C.Cycles-startCycles) / float64(requests)
	})
	res.Outcome, res.PeakReserved, res.PageFaults = m.outcome, m.peakReserved, m.pageFaults
	return res
}

// appKey is the memo identity of one case-study cell.
type appKey struct {
	app, policy string
	requests    int
}

// appCell is the cell of one case-study measurement, labelled
// "fig13:app/policy/rN".
func (e *Engine) appCell(app, policy string, requests int) cell[AppResult] {
	return cell[AppResult]{
		key:      appKey{app: app, policy: policy, requests: requests},
		label:    fmt.Sprintf("fig13:%s/%s/r%d", app, policy, requests),
		profiled: true,
		policy:   policy,
		skipped:  AppResult{App: app, Policy: policy, Outcome: harden.Outcome{Canceled: true}},
		run: func(tel *telemetry.Profile) (AppResult, uint64) {
			r := measureApp(app, policy, requests, tel, e.cancel)
			return r, uint64(r.ServiceCycles * float64(requests))
		},
	}
}

// MeasureApp runs (or recalls) one case-study cell through the engine's
// cache.
func (e *Engine) MeasureApp(app, policy string, requests int) AppResult {
	return runCell(e, e.appCell(app, policy, requests))
}

// Fig13Clients is the client-count sweep of the throughput-latency plots.
var Fig13Clients = []int{1, 2, 4, 8, 16, 32}

// Fig13Apps are the network case studies, in presentation order.
var Fig13Apps = []string{"memcached", "apache", "nginx"}

// Fig13 reproduces Figure 13: throughput-latency behaviour and peak memory
// usage of the three network case studies. The (app, policy) cells are
// fanned across the engine's worker pool; output is byte-identical for
// every worker count.
func (e *Engine) Fig13(w io.Writer, requests int) map[string]map[string]AppResult {
	cells := make([]cell[AppResult], len(Fig13Apps)*len(PolicyNames))
	for i := range cells {
		cells[i] = e.appCell(Fig13Apps[i/len(PolicyNames)], PolicyNames[i%len(PolicyNames)], requests)
	}
	results := make([]AppResult, len(cells))
	runCells(e, cells, results)
	out := make(map[string]map[string]AppResult)
	for ai, app := range Fig13Apps {
		out[app] = make(map[string]AppResult)
		for pi, pol := range PolicyNames {
			out[app][pol] = results[ai*len(PolicyNames)+pi]
		}
		tab := &Table{
			Title: fmt.Sprintf("Figure 13 (%s): throughput [kreq/s] / latency [ms] by concurrent clients", app),
			Header: append([]string{"policy"}, func() []string {
				var h []string
				for _, c := range Fig13Clients {
					h = append(h, fmt.Sprintf("c=%d", c))
				}
				return h
			}()...),
		}
		for _, pol := range PolicyNames {
			r := out[app][pol]
			row := []string{pol}
			for _, clients := range Fig13Clients {
				if r.Outcome.Crashed() {
					row = append(row, "OOM")
					continue
				}
				tput := r.Throughput()
				if clients < AppWorkers[app] {
					tput = tput * float64(clients) / float64(AppWorkers[app])
				}
				row = append(row, fmt.Sprintf("%.0f/%.3f", tput/1000, r.Latency(clients)))
			}
			tab.AddRow(row...)
		}
		tab.Fprint(w)
	}

	mem := &Table{Title: "Figure 13: memory usage (reserved VM) at peak throughput",
		Header: []string{"policy", "memcached", "apache", "nginx"}}
	for _, pol := range PolicyNames {
		row := []string{pol}
		for _, app := range Fig13Apps {
			r := out[app][pol]
			if r.Outcome.Crashed() {
				row = append(row, "OOM")
			} else {
				row = append(row, FmtMB(r.PeakReserved))
			}
		}
		mem.AddRow(row...)
	}
	mem.Fprint(w)
	return out
}
