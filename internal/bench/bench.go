// Package bench is the evaluation harness (the reproduction's analogue of
// the Fex framework the paper used, §6.1): it runs (workload x policy x
// size x threads) grids on fresh machines, normalises results against the
// native SGX baseline, and prints the rows and series of every table and
// figure in the paper's evaluation.
package bench

import (
	"fmt"

	"sgxbounds/internal/asan"
	"sgxbounds/internal/baggy"
	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/mpx"
	"sgxbounds/internal/perf"
	"sgxbounds/internal/sfi"
	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

// PolicyNames lists the mechanisms of the paper's headline comparison, in
// presentation order.
var PolicyNames = []string{"sgx", "mpx", "asan", "sgxbounds"}

// Spec describes one benchmark run.
type Spec struct {
	Workload string
	Policy   string // "sgx", "sgxbounds", "asan", "mpx", "baggy"
	Size     workloads.Size
	Threads  int
	Config   machine.Config
	// CoreOpts configures the SGXBounds policy; it applies only when
	// CoreOptsSet is true (the default is AllOptimizations, the paper's
	// headline configuration).
	CoreOpts    core.Options
	CoreOptsSet bool
}

// Result is the outcome of one run.
type Result struct {
	Spec         Spec
	Outcome      harden.Outcome
	Cycles       uint64 // simulated elapsed time (main-thread critical path)
	Totals       perf.Counters
	PeakReserved uint64 // bytes of reserved virtual memory (the paper's metric)
	PageFaults   uint64 // EPC page faults
	BoundsTables int    // MPX only
	Digest       uint64
}

// NewPolicy constructs the named mechanism over env.
func NewPolicy(name string, env *harden.Env, coreOpts core.Options) (harden.Policy, error) {
	switch name {
	case "sgx":
		return harden.NewNative(env), nil
	case "sgxbounds":
		return core.New(env, coreOpts), nil
	case "asan":
		return asan.New(env, asan.Options{}), nil
	case "mpx":
		return mpx.New(env), nil
	case "baggy":
		return baggy.New(env)
	case "sfi":
		return sfi.New(env), nil
	}
	return nil, fmt.Errorf("bench: unknown policy %q", name)
}

// Run executes one spec on a fresh machine.
func Run(spec Spec) Result {
	if spec.Threads == 0 {
		spec.Threads = 1
	}
	if spec.Config.L1.Size == 0 {
		tel, cancel := spec.Config.Tel, spec.Config.Cancel
		spec.Config = machine.DefaultConfig()
		spec.Config.Tel = tel
		spec.Config.Cancel = cancel
	}
	if spec.Policy == "sgxbounds" && !spec.CoreOptsSet {
		spec.CoreOpts = core.AllOptimizations()
	}
	w, err := workloads.Get(spec.Workload)
	if err != nil {
		panic(err)
	}
	res := Result{Spec: spec}
	m := simulate(spec.Config, spec.Policy, spec.CoreOpts, func(ctx *harden.Ctx) {
		res.Digest = w.Run(ctx, spec.Threads, spec.Size)
	})
	res.Outcome, res.Cycles, res.Totals = m.outcome, m.cycles, m.totals
	res.PeakReserved, res.PageFaults = m.peakReserved, m.pageFaults
	if p, ok := m.policy.(*mpx.Policy); ok {
		res.BoundsTables = p.BoundsTables()
	}
	return res
}

// machineRun is the record of one finished simulation on a fresh machine.
type machineRun struct {
	policy       harden.Policy
	outcome      harden.Outcome
	cycles       uint64 // the main thread's critical path
	totals       perf.Counters
	peakReserved uint64
	pageFaults   uint64
}

// simulate is the fresh-machine skeleton every simulated cell shares: it
// builds a machine from cfg, hardens it with the named policy, runs body on
// the main thread between the "run" phase events, and publishes the
// terminal counters to cfg.Tel, with the main thread's critical path as
// run.cycles.
func simulate(cfg machine.Config, policy string, opts core.Options, body func(*harden.Ctx)) machineRun {
	env := harden.NewEnv(cfg)
	pl, err := NewPolicy(policy, env, opts)
	if err != nil {
		panic(err)
	}
	ctx := harden.NewCtx(pl, env.M.NewThread())
	tel := cfg.Tel
	tel.Tracer().Emit(telemetry.Event{Kind: telemetry.EvPhaseBegin, Name: "run"})
	m := machineRun{policy: pl}
	m.outcome = env.Capture(func() { body(ctx) })
	m.cycles = ctx.T.C.Cycles
	m.totals = env.M.Finish(ctx.T)
	m.peakReserved = env.M.AS.PeakReserved()
	m.pageFaults = env.M.PageFaults()
	tel.Tracer().Emit(telemetry.Event{Ts: m.cycles, Kind: telemetry.EvPhaseEnd, Name: "run"})
	publishRun(tel, env, &m.totals, m.cycles, m.peakReserved)
	return m
}

// publishRun snapshots a finished cell's terminal counters into its metrics
// registry under run.*. These are the reconciliation anchors for sgxtrace:
// the live epc.* counters and the event stream must agree with them exactly.
func publishRun(p *telemetry.Profile, env *harden.Env, c *perf.Counters, cycles, peakReserved uint64) {
	if p == nil || p.Metrics == nil {
		return
	}
	add := func(name string, v uint64) { p.Counter(name).Add(v) }
	add("run.cycles", cycles)
	add("run.instr", c.Instr)
	add("run.loads", c.Loads)
	add("run.stores", c.Stores)
	add("run.checks", c.Checks)
	add("run.violations", c.Violations)
	add("run.allocs", c.Allocs)
	add("run.frees", c.Frees)
	add("run.llc_misses", c.LLCMisses())
	add("run.page_faults", c.PageFaults)
	add("run.cold_faults", c.ColdFaults)
	add("run.peak_reserved_bytes", peakReserved)
	add("run.transitions", c.Transitions)
	if epc := env.M.EPC; epc != nil {
		add("run.epc_faults", epc.Faults())
		add("run.epc_evictions", epc.Evictions())
		add("run.epc_capacity_pages", uint64(epc.Capacity()))
		add("run.epc_resident_peak_pages", uint64(epc.PeakResident()))
		add("run.epc_touched_pages", uint64(epc.TouchedPages()))
	}
}

// Overhead returns r's slowdown relative to base (1.0 = equal).
func Overhead(r, base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// MemOverhead returns r's reserved-VM ratio relative to base.
func MemOverhead(r, base Result) float64 {
	if base.PeakReserved == 0 {
		return 0
	}
	return float64(r.PeakReserved) / float64(base.PeakReserved)
}
