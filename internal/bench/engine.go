package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

// Engine schedules experiment cells. Every cell — a Run spec, a Figure 1
// speedtest, a Figure 13 case study, a Table 4 RIPE sweep — builds private
// machines and shares no state with any other cell, so the engine fans
// independent cells across a bounded pool of host goroutines and
// reassembles the results in the deterministic order the caller asked for.
// Formatter output is therefore byte-identical for every worker count,
// including 1.
//
// The engine also memoises cells: the paper's figures overlap heavily
// (Figure 8's L-size column is Figure 7's grid, Figure 10's baselines are
// Figure 7's sgx row), so within one `sgxbench -experiment all` invocation a
// (workload, policy, size, threads, config) cell runs at most once. Every
// entry point reaches cells through one path, runCells, over one memo map.
type Engine struct {
	workers int

	// Progress, when non-nil, receives throttled progress lines (cells
	// done / total, cells per second, simulated cycles by policy). Rates
	// depend on wall clock, so Progress must not be mixed into the
	// deterministic table output; commands point it at stderr.
	Progress io.Writer

	// Telemetry, when non-nil, attaches a per-cell profile to every cell the
	// engine executes. Profiles are keyed by the cell's canonical label
	// (derived from the resolved spec), so duplicate cells across figures —
	// which the engine memoises into one execution — share one profile and
	// attribution survives -parallel scheduling. Nil leaves telemetry off.
	Telemetry *telemetry.Collector

	// cancel, when non-nil, aborts the engine: queued cells are skipped and
	// running cells panic out of the simulation at their next hierarchy
	// probe (machine.Config.Cancel). Set by BindContext.
	cancel *atomic.Bool

	// CellHook, when non-nil, runs at the start of every cell the engine
	// actually executes (cache hits skip it), keyed by the cell's canonical
	// label. It is the fault-injection seam: a hook may sleep (slow cell),
	// panic (poison cell — unwound like any workload panic, so one poisoned
	// cell fails the experiment without killing the process), or abort the
	// process outright (crash testing). It must not mutate engine state.
	CellHook func(label string)

	mu           sync.Mutex
	printMu      sync.Mutex  // serialises Progress writes; see noteDone
	memo         map[any]any // cell key -> result; see cell.key
	done, total  int
	hits         int
	policyCycles map[string]uint64
	start        time.Time
	lastNote     time.Time
}

// NewEngine returns an engine running up to workers cells concurrently;
// workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:      workers,
		memo:         make(map[any]any),
		policyCycles: make(map[string]uint64),
	}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// BindContext ties the engine's lifetime to ctx: when ctx is cancelled,
// cells that have not started are skipped and cells in flight abort at
// their next memory-hierarchy probe, unwinding as a Canceled outcome.
// Canceled cells are never cached, and their results (zeroes or partial
// counters) must be discarded along with any table text rendered from
// them. Call before the first cell runs.
func (e *Engine) BindContext(ctx context.Context) {
	flag := new(atomic.Bool)
	if ctx.Err() != nil {
		// AfterFunc would fire asynchronously even for an already-dead
		// context; an engine bound to one must refuse cells immediately.
		flag.Store(true)
	} else {
		context.AfterFunc(ctx, func() { flag.Store(true) })
	}
	e.cancel = flag
}

// Canceled reports whether the engine's bound context has been cancelled.
func (e *Engine) Canceled() bool { return e.cancel != nil && e.cancel.Load() }

// CacheStats returns how many cells were served from the cache and how many
// were actually executed.
func (e *Engine) CacheStats() (hits, runs int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.done
}

// cell is one unit of engine work of result type T.
type cell[T any] struct {
	// key is the cell's memo identity, a comparable struct (specKey,
	// speedKey, appKey, ripeKey); nil marks an uncacheable cell, which
	// always runs and is never stored.
	key any
	// label names the cell to the CellHook and keys its telemetry profile.
	label string
	// profiled cells get a telemetry profile while the engine collects.
	profiled bool
	// policy is the progress line's cycle bucket for the cell.
	policy string
	// skipped is the result of a cell the engine never ran (cancelled).
	skipped T
	// run simulates the cell against its profile (nil when unprofiled or
	// telemetry is off) and returns the result and the simulated cycles
	// the progress line adds to the cell's policy.
	run func(tel *telemetry.Profile) (T, uint64)
}

// runCells is the engine's one cell path; results[i] receives cells[i]'s
// result. Planning counts memo hits and duplicates within the batch as
// cache hits and announces the remaining cells to the progress total. Each
// remaining cell then runs on the worker pool: cancel check, profile,
// CellHook, simulation, memo store, progress; a cell that is skipped or
// panics is taken back off the total instead. Duplicates are filled from
// the memo afterwards; one whose first occurrence did not land there
// (cancelled, or its hook panicked) is reported as skipped. A panicking
// cell does not stop the others: the first panic in cell order is
// re-raised once every result is in place.
func runCells[T any](e *Engine, cells []cell[T], results []T) {
	var run, dups []int
	first := make(map[any]bool, len(cells))
	e.mu.Lock()
	for i, c := range cells {
		if c.key == nil {
			run = append(run, i)
		} else if v, ok := e.memo[c.key]; ok {
			results[i] = v.(T)
			e.hits++
		} else if first[c.key] {
			dups = append(dups, i)
			e.hits++
		} else {
			first[c.key] = true
			run = append(run, i)
		}
	}
	e.total += len(run)
	e.mu.Unlock()

	p := e.runJobs(len(run), func(j int) {
		i := run[j]
		c := cells[i]
		counted := false
		defer func() {
			if !counted { // skipped or panicked: never marked done
				e.mu.Lock()
				e.total--
				e.mu.Unlock()
			}
		}()
		if e.Canceled() {
			results[i] = c.skipped
			return
		}
		var tel *telemetry.Profile
		if c.profiled {
			tel = e.Telemetry.Attach(c.label)
		}
		if e.CellHook != nil {
			e.CellHook(c.label)
		}
		v, cycles := c.run(tel)
		results[i] = v
		e.mu.Lock()
		if c.key != nil && !e.Canceled() {
			// Only a cell that ran to completion under a live engine is
			// memoised; a cancelled one may hold partial counters.
			e.memo[c.key] = v
		}
		e.mu.Unlock()
		counted = true
		e.noteDone(c.policy, cycles)
	})

	e.mu.Lock()
	for _, i := range dups {
		if v, ok := e.memo[cells[i].key]; ok {
			results[i] = v.(T)
		} else {
			results[i] = cells[i].skipped
		}
	}
	e.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// runCell runs a batch of one cell.
func runCell[T any](e *Engine, c cell[T]) T {
	results := make([]T, 1)
	runCells(e, []cell[T]{c}, results)
	return results[0]
}

// specKey is the canonical identity of one Run cell: the Spec after default
// resolution, with the policy options flattened to their comparable fields.
// Spec itself cannot be a map key because core.Options embeds function-typed
// hooks; cells with active hooks are simply not cached (no benchmark uses
// them).
type specKey struct {
	workload string
	policy   string
	size     workloads.Size
	threads  int
	config   machine.Config
	opts     optKey
}

type optKey struct {
	boundless, safeElision, hoisting bool
	extraMetaWords                   int
	boundlessCapBytes                uint32
}

func hooksActive(h core.Hooks) bool {
	return h.OnCreate != nil || h.OnAccess != nil || h.OnDelete != nil
}

// canonicalKey resolves spec's defaults exactly as Run does and returns its
// cache key. ok is false when the cell is uncacheable (active hooks).
func canonicalKey(spec Spec) (specKey, bool) {
	if spec.Threads == 0 {
		spec.Threads = 1
	}
	if spec.Config.L1.Size == 0 {
		spec.Config = machine.DefaultConfig()
	}
	// The attached telemetry profile and cancel flag are side channels,
	// never part of the cell's identity: cells differing only in them are
	// the same cell.
	spec.Config.Tel = nil
	spec.Config.Cancel = nil
	var opts core.Options
	if spec.Policy == "sgxbounds" {
		// Only the SGXBounds policy consumes CoreOpts; flattening the
		// options for everyone else lets e.g. a Figure 10 baseline hit the
		// same cell as a Figure 7 one.
		opts = spec.CoreOpts
		if !spec.CoreOptsSet {
			opts = core.AllOptimizations()
		}
	}
	if hooksActive(opts.Hooks) {
		return specKey{}, false
	}
	return specKey{
		workload: spec.Workload,
		policy:   spec.Policy,
		size:     spec.Size,
		threads:  spec.Threads,
		config:   spec.Config,
		opts: optKey{
			boundless:         opts.Boundless,
			safeElision:       opts.SafeElision,
			hoisting:          opts.Hoisting,
			extraMetaWords:    opts.ExtraMetaWords,
			boundlessCapBytes: opts.BoundlessCapBytes,
		},
	}, true
}

// specLabel derives the canonical, human-readable label of a Run cell from
// its resolved key: "workload/policy/SIZE/tN", with suffixes only for
// departures from the evaluation's defaults (native = outside the enclave,
// mbN = non-default enclave budget in MiB, epcN = non-default EPC pages,
// opts... = a Figure 10 ablation variant). The label is what telemetry
// profiles and sgxtrace reports key on.
func specLabel(k specKey) string {
	label := fmt.Sprintf("%s/%s/%s/t%d", k.workload, k.policy, k.size, k.threads)
	if !k.config.Enclave.Enabled {
		label += "/native"
	} else {
		if k.config.MemoryBudget != machine.DefaultMemoryBudget {
			label += fmt.Sprintf("/mb%d", k.config.MemoryBudget>>20)
		}
		if k.config.Enclave.EPCBytes != 0 {
			label += fmt.Sprintf("/epc%d", k.config.Enclave.EPCBytes>>12)
		}
	}
	if k.policy == "sgxbounds" && k.opts != (optKey{safeElision: true, hoisting: true}) {
		label += "/opts"
		if k.opts.boundless {
			label += "+boundless"
		}
		if k.opts.safeElision {
			label += "+safe"
		}
		if k.opts.hoisting {
			label += "+hoist"
		}
		if k.opts.extraMetaWords != 0 {
			label += fmt.Sprintf("+meta%d", k.opts.extraMetaWords)
		}
		if k.opts.boundlessCapBytes != 0 {
			label += fmt.Sprintf("+cap%d", k.opts.boundlessCapBytes)
		}
	}
	return label
}

// specCell is the cell of one Run spec. An uncacheable spec keeps the
// caller's telemetry profile and is labelled "workload/policy".
func (e *Engine) specCell(spec Spec) cell[Result] {
	key, cacheable := canonicalKey(spec)
	c := cell[Result]{
		label:   spec.Workload + "/" + spec.Policy,
		policy:  spec.Policy,
		skipped: Result{Spec: spec, Outcome: harden.Outcome{Canceled: true}},
	}
	if cacheable {
		c.key, c.label, c.profiled = key, specLabel(key), true
	}
	c.run = func(tel *telemetry.Profile) (Result, uint64) {
		s := spec
		if cacheable {
			s.Config.Tel = tel
		}
		s.Config.Cancel = e.cancel
		r := Run(s)
		return r, r.Totals.Cycles
	}
	return c
}

// Run executes one cell through the engine's cache.
func (e *Engine) Run(spec Spec) Result { return runCell(e, e.specCell(spec)) }

// RunAll executes the specs (deduplicated against each other and the cache)
// on the worker pool and returns their results in input order.
func (e *Engine) RunAll(specs []Spec) []Result {
	cells := make([]cell[Result], len(specs))
	for i, s := range specs {
		cells[i] = e.specCell(s)
	}
	results := make([]Result, len(specs))
	runCells(e, cells, results)
	return results
}

// runJobs executes n independent jobs with at most e.workers running
// concurrently. A panicking job does not abort the others; the first panic
// (in job order, for determinism) is returned once all jobs finish.
func (e *Engine) runJobs(n int, job func(i int)) (panicked any) {
	w := min(e.workers, n)
	panics := make([]any, n)
	guarded := func(i int) {
		defer func() { panics[i] = recover() }()
		job(i)
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			guarded(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					guarded(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, p := range panics {
		if p != nil {
			return p
		}
	}
	return nil
}

// noteDone records one finished cell and emits a throttled progress line.
func (e *Engine) noteDone(policy string, cycles uint64) {
	e.mu.Lock()
	if e.start.IsZero() {
		e.start = time.Now()
	}
	e.done++
	e.policyCycles[policy] += cycles
	if e.Progress == nil {
		e.mu.Unlock()
		return
	}
	now := time.Now()
	if e.done < e.total && now.Sub(e.lastNote) < time.Second {
		e.mu.Unlock()
		return
	}
	e.lastNote = now
	line := e.progressLine(now)
	w := e.Progress
	// Cells finish on several workers and Progress need not be safe for
	// concurrent use. Taking printMu before releasing mu writes the lines
	// one at a time, in the order they were rendered, without holding mu
	// across the write.
	e.printMu.Lock()
	e.mu.Unlock()
	fmt.Fprintln(w, line)
	e.printMu.Unlock()
}

// progressLine renders the current progress state. Called with e.mu held.
func (e *Engine) progressLine(now time.Time) string {
	rate := 0.0
	if d := now.Sub(e.start).Seconds(); d > 0 {
		rate = float64(e.done) / d
	}
	line := fmt.Sprintf("cells %d/%d (%d cached, %.1f cells/s)", e.done, e.total, e.hits, rate)
	if len(e.policyCycles) > 0 {
		pols := make([]string, 0, len(e.policyCycles))
		for p := range e.policyCycles {
			pols = append(pols, p)
		}
		sort.Strings(pols)
		line += " cycles:"
		for _, p := range pols {
			line += fmt.Sprintf(" %s=%.3g", p, float64(e.policyCycles[p]))
		}
	}
	return line
}
