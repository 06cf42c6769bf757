// sgxload is an open-loop load driver for sgxd's front door (in the
// Stress-SGX spirit: load the service envelope, not the simulator).
// It sends planned = rps × duration submissions on an absolute schedule,
// send i at start + i/rps, regardless of how fast the daemon answers —
// the open-loop discipline that exposes queueing collapse, which
// closed-loop clients mask. The mix interleaves one identical job
// (exercising single-flight coalescing) with distinct jobs (exercising
// admission and the result tier).
//
// The JSON report goes to stdout, and to -out when set: planned, issued
// and late sends, the coalescing ratio, the 429/5xx counts, and submit
// latency measured from each send's scheduled time, so a slow issuing
// loop shows up in the latencies instead of hiding in them.
//
// -targets takes one sgxd base URL or a comma-separated list, and
// round-robins submissions across them. Transport failures retry with
// bounded, jittered backoff — a node restarting during membership churn
// briefly refuses connections, which is churn, not an outage — and
// retried submissions are counted separately from errors.
//
// Exit status: 0 on a clean run; 1 when a planned send was not issued, a
// send started more than lateLimit after its schedule, or an -assert-*
// flag fails; 2 on usage or connectivity errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// identicalJob is the identical share of the mix. It is deliberately
	// heavy (seconds of compute on a cold store): coalescing needs
	// submissions to overlap an in-flight computation, and a millisecond
	// job leaves no window at any sane rate. Once the result is warm, later
	// identical submits become instant store hits — so the coalescing
	// ratio measures the cold phase.
	identicalJob   = `{"experiment":"grid","workloads":["kmeans"],"policies":["sgxbounds"],"size":"XL","threads":8}`
	tenant         = "sgxload"
	requestTimeout = 30 * time.Second

	// lateLimit is how late a send may start before the run fails; it is
	// the limit perfbench's load generator applies to its own schedule.
	lateLimit = time.Second
)

type cliConfig struct {
	targets  []string
	rps      float64
	duration time.Duration
	mix      float64
	out      string

	assertCoalescing bool
	assertNo5xx      bool
}

// report is sgxload's JSON output.
type report struct {
	Config struct {
		Targets      []string `json:"targets"`
		TargetRPS    float64  `json:"target_rps"`
		DurationSec  float64  `json:"duration_sec"`
		IdenticalMix float64  `json:"identical_mix"`
	} `json:"config"`
	Totals struct {
		Planned int `json:"planned"`
		Issued  int `json:"issued"`
		// Late counts sends that started more than lateLimit after their
		// scheduled time.
		Late      int `json:"late"`
		Accepted  int `json:"accepted"`
		Coalesced int `json:"coalesced"`
		Computed  int `json:"computed"` // accepted submissions that became their own job
		Rejected  int `json:"rejected_429"`
		Server5xx int `json:"server_5xx"`
		Errors    int `json:"transport_errors"`
		// Retried counts submissions that needed at least one transport
		// retry but ultimately reached a node — expected (and reported
		// separately, not as errors) during membership churn, when a
		// restarting node briefly refuses connections.
		Retried int `json:"retried"`
	} `json:"totals"`
	// CoalescingRatio is accepted submissions per distinct job the daemon
	// actually had to own (1.0 = no sharing; N identical concurrent
	// submits ideally approach N).
	CoalescingRatio float64 `json:"coalescing_ratio"`
	Rate429         float64 `json:"rate_429"`
	LatencyMS       struct {
		P50  float64 `json:"p50"`
		P99  float64 `json:"p99"`
		P999 float64 `json:"p999"`
		Max  float64 `json:"max"`
		Mean float64 `json:"mean"`
	} `json:"submit_latency_ms"`
}

// distinctPool is the cycle of cheap single-cell grid jobs used for the
// non-identical share of the mix: every workload/policy pair is its own
// content address, so these never coalesce with each other or with the
// identical stream.
var (
	poolWorkloads = []string{"histogram", "linear_regression", "string_match", "matrixmul"}
	poolPolicies  = []string{"sgx", "mpx", "asan", "sgxbounds"}
)

func distinctBody(i int) []byte {
	w := poolWorkloads[i%len(poolWorkloads)]
	p := poolPolicies[(i/len(poolWorkloads))%len(poolPolicies)]
	b, _ := json.Marshal(map[string]any{
		"experiment": "grid",
		"workloads":  []string{w},
		"policies":   []string{p},
		"size":       "XS",
		"threads":    1,
	})
	return b
}

// body picks send i's request. The mix interleaves identical and distinct
// jobs deterministically (no RNG: runs are reproducible): send i is
// identical when the identical share of sends 0..i first reaches a new
// whole number.
func body(i int, mix float64) []byte {
	ident := int(float64(i+1) * mix) // identical sends among 0..i
	if ident > int(float64(i)*mix) {
		return []byte(identicalJob)
	}
	return distinctBody(i - ident)
}

type outcome struct {
	issued    bool
	late      time.Duration // request start - scheduled send
	latency   time.Duration // answer - scheduled send
	status    int
	coalesced bool
	retries   int // transport retries before this outcome settled
	err       error
}

// submitAttempts bounds the transport retries per submission: a node
// mid-restart during membership churn refuses connections for well under
// the total backoff this allows, and anything still refusing after that
// is a real outage worth reporting as an error.
const submitAttempts = 3

// retryDelay is the jittered backoff before transport retry n (1-based)
// of submission seq. The jitter is derived, not random — runs stay
// byte-reproducible — but seq spreads concurrent retries so a restarting
// node is not hit by a synchronized thundering herd.
func retryDelay(seq, n int) time.Duration {
	base := 50 * time.Millisecond << (n - 1) // 50ms, 100ms
	jitter := time.Duration(seq%7) * 10 * time.Millisecond
	return base + jitter
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg cliConfig
	targets := flag.String("targets", "http://127.0.0.1:7483", "sgxd base URL, or a comma-separated list of them to round-robin across")
	flag.Float64Var(&cfg.rps, "rps", 50, "target submissions per second (open loop)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load")
	flag.Float64Var(&cfg.mix, "mix", 0.8, "fraction of submissions that are the identical job (0..1); the rest cycle a distinct-job pool")
	flag.StringVar(&cfg.out, "out", "", "also write the JSON report to this file (it always goes to stdout)")
	flag.BoolVar(&cfg.assertCoalescing, "assert-coalescing", false, "exit 1 unless the coalescing ratio is > 1")
	flag.BoolVar(&cfg.assertNo5xx, "assert-no-5xx", false, "exit 1 if any submission got a 5xx")
	flag.Parse()
	planned := int(math.Round(cfg.rps * cfg.duration.Seconds()))
	if cfg.rps <= 0 || cfg.mix < 0 || cfg.mix > 1 || planned < 1 {
		fmt.Fprintln(os.Stderr, "sgxload: -rps must be > 0, -mix within [0,1], and -rps × -duration at least one send")
		return 2
	}
	for _, tgt := range strings.Split(*targets, ",") {
		if tgt = strings.TrimSpace(tgt); tgt != "" {
			cfg.targets = append(cfg.targets, strings.TrimRight(tgt, "/"))
		}
	}
	if len(cfg.targets) == 0 {
		fmt.Fprintln(os.Stderr, "sgxload: -targets named no URLs")
		return 2
	}

	client := &http.Client{Timeout: requestTimeout}
	for _, tgt := range cfg.targets {
		if !waitReady(client, tgt, requestTimeout) {
			fmt.Fprintf(os.Stderr, "sgxload: %s/readyz never went ready\n", tgt)
			return 2
		}
	}

	outcomes := make([]outcome, planned)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / cfg.rps)
	schedule(time.Now(), planned, interval, func(i int, at time.Time) {
		target := cfg.targets[i%len(cfg.targets)] // round-robin across the cluster
		b := body(i, cfg.mix)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = submit(client, target, b, i, at)
		}()
	})
	wg.Wait()

	rep := buildReport(cfg, outcomes)
	blob, _ := json.MarshalIndent(rep, "", "  ")
	blob = append(blob, '\n')
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sgxload: write %s: %v\n", cfg.out, err)
			return 2
		}
	}
	os.Stdout.Write(blob)
	return verdict(cfg, rep)
}

// schedule calls fire(i, at) on the caller's goroutine for each send
// i < planned once the clock reaches at = start + i·interval. It never
// drops a send: after a stall (a GC pause, a descheduled process) it
// fires every overdue send at once, each still timed against its own at,
// so the stall shows up as late sends rather than missing ones. fire must
// start the send and return without waiting for it.
func schedule(start time.Time, planned int, interval time.Duration, fire func(i int, at time.Time)) {
	for i := 0; i < planned; i++ {
		at := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(at))
		fire(i, at)
	}
}

// submit posts body to target as send seq, scheduled at at, and times the
// send from that schedule.
func submit(client *http.Client, target string, body []byte, seq int, at time.Time) outcome {
	o := outcome{issued: true, late: time.Since(at)}
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, target+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			o.err = err
			break
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Sgxd-Tenant", tenant)
		resp, err := client.Do(req)
		if err != nil {
			// Transport failure (connection refused during churn, reset
			// mid-restart): retry with jittered backoff, bounded.
			o.err = err
			if attempt >= submitAttempts {
				break
			}
			o.retries++
			time.Sleep(retryDelay(seq, attempt))
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		o.err = nil
		o.status = resp.StatusCode
		o.coalesced = resp.Header.Get("X-Sgxd-Coalesced") == "true"
		break
	}
	o.latency = time.Since(at)
	return o
}

func buildReport(cfg cliConfig, outcomes []outcome) report {
	var rep report
	rep.Config.Targets = cfg.targets
	rep.Config.TargetRPS = cfg.rps
	rep.Config.DurationSec = cfg.duration.Seconds()
	rep.Config.IdenticalMix = cfg.mix
	rep.Totals.Planned = len(outcomes)

	var lat []float64
	var sum float64
	for _, o := range outcomes {
		if !o.issued {
			continue
		}
		rep.Totals.Issued++
		if o.late > lateLimit {
			rep.Totals.Late++
		}
		if o.retries > 0 && o.err == nil {
			rep.Totals.Retried++
		}
		switch {
		case o.err != nil:
			rep.Totals.Errors++
			continue
		case o.status == http.StatusCreated:
			rep.Totals.Accepted++
			if o.coalesced {
				rep.Totals.Coalesced++
			}
		case o.status == http.StatusTooManyRequests:
			rep.Totals.Rejected++
		case o.status >= 500:
			rep.Totals.Server5xx++
		}
		ms := float64(o.latency) / float64(time.Millisecond)
		lat = append(lat, ms)
		sum += ms
	}
	rep.Totals.Computed = rep.Totals.Accepted - rep.Totals.Coalesced
	if rep.Totals.Computed > 0 {
		rep.CoalescingRatio = float64(rep.Totals.Accepted) / float64(rep.Totals.Computed)
	}
	if rep.Totals.Issued > 0 {
		rep.Rate429 = float64(rep.Totals.Rejected) / float64(rep.Totals.Issued)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		rep.LatencyMS.P50 = percentile(lat, 0.50)
		rep.LatencyMS.P99 = percentile(lat, 0.99)
		rep.LatencyMS.P999 = percentile(lat, 0.999)
		rep.LatencyMS.Max = lat[len(lat)-1]
		rep.LatencyMS.Mean = sum / float64(len(lat))
	}
	return rep
}

// verdict reports every failed check on stderr and returns the exit code.
func verdict(cfg cliConfig, rep report) int {
	code := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sgxload: FAILED "+format+"\n", args...)
		code = 1
	}
	if rep.Totals.Issued < rep.Totals.Planned {
		fail("issued %d of %d planned sends", rep.Totals.Issued, rep.Totals.Planned)
	}
	if rep.Totals.Late > 0 {
		fail("%d sends started more than %s after their schedule", rep.Totals.Late, lateLimit)
	}
	if cfg.assertCoalescing && rep.CoalescingRatio <= 1 {
		fail("coalescing ratio %.3f <= 1", rep.CoalescingRatio)
	}
	if cfg.assertNo5xx && rep.Totals.Server5xx > 0 {
		fail("%d submissions hit 5xx", rep.Totals.Server5xx)
	}
	if rep.Totals.Errors > 0 {
		fmt.Fprintf(os.Stderr, "sgxload: warning: %d transport errors\n", rep.Totals.Errors)
	}
	return code
}

// percentile reads the p-quantile from a sorted sample (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// waitReady polls /readyz until the daemon reports ready.
func waitReady(client *http.Client, addr string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}
