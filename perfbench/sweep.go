package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sgxbounds/internal/bench"
	_ "sgxbounds/internal/stress" // registers the stress experiments
	"sgxbounds/internal/telemetry"
)

// sweepList is the cross-section of registered experiments the sweep
// workload runs, in order, each as `sgxbench -experiment <name> -parallel 1`.
// NOTES.md records why these and how their CPU profile compares with the
// full sweep's.
var sweepList = []string{"fig2", "table4", "epc-thrash", "ptrchase", "transition-storm", "multitask"}

// sweepNominalPassS turns --seconds into a fixed number of passes over the
// list (so every run does the same work); it is not measured. A run makes
// at least minSweepPasses, so each reported figure discards slow passes.
const (
	sweepNominalPassS = 6
	minSweepPasses    = 3
)

// sweepStartups is how many times set-up launches sgxbench on its
// instant experiment; the median launch is the sweep's set-up time.
const sweepStartups = 45

// expRun is one sgxbench process: one experiment of one pass.
type expRun struct {
	name   string
	wall   time.Duration
	steal  float64 // steal on the process's CPU while it ran, s
	cpu    float64 // user+sys of the process, s
	rssMB  float64 // peak resident set of the process
	output string
	err    error
}

// runSgxbench runs `sgxbench -experiment <name> -parallel 1` to completion
// on CPU cpu alone, reads its CPU time and peak resident set from the
// kernel's rusage, and the time the hypervisor stole from that CPU
// meanwhile from /proc/stat.
func runSgxbench(bin, name string, cpu int) expRun {
	cmd := exec.Command(filepath.Join(bin, "sgxbench"), "-experiment", name, "-parallel", "1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = diesWithParent()
	cpuLine := fmt.Sprintf("cpu%d", cpu)
	steal0 := cpuSteal(cpuLine)
	t0 := time.Now()
	err := startPinned(cmd, cpu)
	if err == nil {
		err = cmd.Wait()
	}
	r := expRun{name: name, wall: time.Since(t0), steal: cpuSteal(cpuLine) - steal0, output: stdout.String()}
	if err != nil {
		r.err = fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			r.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if r.err == nil && r.cpu == 0 {
		r.err = errors.New("no rusage for the sgxbench process")
	}
	return r
}

// loadSections reads the committed transcript every sweep experiment is
// checked against.
func loadSections(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return nil, err
	}
	return parseSections(string(b))
}

// checkExp counts one experiment run as an op, failing it when it errored
// or its output differs from its transcript section.
func checkExp(rep *report, name, output string, err error, sections map[string]string) {
	rep.attempted++
	want, ok := sections[name]
	switch {
	case err != nil:
		rep.fail("sweep %s: %v", name, err)
	case !ok:
		rep.fail("sweep %s: no section in experiments_output.txt", name)
	case output != want:
		rep.fail("sweep %s: output differs from experiments_output.txt", name)
	}
}

// sweepEndToEnd launches sgxbench sweepStartups times on fig2 (set-up),
// then runs the passes and fills the end-to-end metrics. Every process
// runs alone on one CPU, and an experiment's wall time is its process's
// wall time less the time the hypervisor stole from that CPU meanwhile:
// on a shared host steal comes in episodes of minutes, and it is time the
// program did not get, not time it took. Every pass does the same
// deterministic work and host noise can only slow an experiment down, so
// each experiment's wall time and CPU are its fastest pass's, and wall_s
// and cpu_s sum them over the list. An experiment's passes alternate
// between the CPUs: on a shared host each virtual CPU runs fast or slow
// for seconds at a time, independently of the other, so alternating gives
// the fastest pass two chances. Peak RSS is the largest process of a
// pass, median over passes. An op is one experiment: its latency is its
// fastest pass, and the latency diagnostics are percentiles across the
// list.
func sweepEndToEnd(cfg config, rep *report, sections map[string]string) error {
	pins, err := allowedCPUs()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < sweepStartups; i++ {
		r := runSgxbench(cfg.bin, "fig2", pins[i%len(pins)])
		checkExp(rep, r.name, r.output, r.err, sections)
		setups = append(setups, r.wall.Seconds())
	}

	passes := int(math.Max(minSweepPasses, math.Round(float64(cfg.seconds)/sweepNominalPassS)))
	steal0 := hostSteal()
	walls := map[string][]float64{}
	rawWalls := map[string][]float64{}
	cpus := map[string][]float64{}
	var rss, passWalls []float64
	var stolen float64
	for p := 0; p < passes; p++ {
		peak, wall := 0.0, 0.0
		for i, name := range sweepList {
			r := runSgxbench(cfg.bin, name, pins[(p+i)%len(pins)])
			checkExp(rep, name, r.output, r.err, sections)
			walls[name] = append(walls[name], math.Max(0, r.wall.Seconds()-r.steal))
			rawWalls[name] = append(rawWalls[name], r.wall.Seconds())
			cpus[name] = append(cpus[name], r.cpu)
			stolen += r.steal
			peak = max(peak, r.rssMB)
			wall += r.wall.Seconds()
		}
		rss = append(rss, peak)
		passWalls = append(passWalls, wall)
	}
	var wall, rawWall, cpu float64
	var lats []float64
	for _, name := range sweepList {
		fastest := percentile(walls[name], 0)
		wall += fastest
		rawWall += percentile(rawWalls[name], 0)
		cpu += percentile(cpus[name], 0)
		lats = append(lats, fastest*1e3)
	}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	rep.endToEnd["wall_s"] = metric{wall, "s"}
	rep.endToEnd["cpu_s"] = metric{cpu, "s"}
	rep.endToEnd["peak_rss_mb"] = metric{median(rss), "MB"}
	latencyDiag(rep, lats)
	rep.diag["host.steal_s"] = metric{hostSteal() - steal0, "s"}
	rep.diag["sweep.passes"] = metric{float64(passes), "count"}
	rep.diag["sweep.pass_wall_median_s"] = metric{median(passWalls), "s"}
	rep.diag["sweep.unadjusted_wall_s"] = metric{rawWall, "s"}
	rep.diag["sweep.stolen_s"] = metric{stolen, "s"}
	return nil
}

// cellMark is the start of one executed cell in the traced pass.
type cellMark struct {
	label string
	at    time.Duration
}

// tracedExp is one experiment of the traced pass.
type tracedExp struct {
	name       string
	start, end time.Duration
}

// sweepTraced runs the list once in this process, through one engine with
// one worker as sgxbench does, with the engine's cell hook and a
// metrics-only telemetry collector on, and fills the bench and sim
// per-layer metrics from it.
func sweepTraced(cfg config, rep *report, sections map[string]string) error {
	tr := newTracer()
	eng := bench.NewEngine(1)
	var cells []cellMark
	eng.CellHook = func(label string) { cells = append(cells, cellMark{label, tr.now()}) }
	eng.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true})
	cpu0 := selfCPU()
	var exps []tracedExp
	for _, name := range sweepList {
		var buf bytes.Buffer
		e := tracedExp{name: name, start: tr.now()}
		err := bench.RunJob(eng, bench.Job{Experiment: name, Threads: bench.DefaultThreads}, &buf, nil)
		e.end = tr.now()
		checkExp(rep, name, buf.String(), err, sections)
		exps = append(exps, e)
	}
	cpu := selfCPU() - cpu0

	var cellDur []float64
	var cellTotal, expTotal time.Duration
	for i, e := range exps {
		root := tr.add("sweep.experiment", -1, i, e.start, e.end, e.name)
		expTotal += e.end - e.start
		var inExp []cellMark
		for _, c := range cells {
			if c.at >= e.start && c.at < e.end {
				inExp = append(inExp, c)
			}
		}
		// One worker runs cells back to back: a cell ends where the next
		// one starts, the last one where its experiment ends.
		for j, c := range inExp {
			end := e.end
			if j+1 < len(inExp) {
				end = inExp[j+1].at
			}
			tr.add("bench.cell", root, i, c.at, end, c.label)
			cellDur = append(cellDur, ms(end-c.at))
			cellTotal += end - c.at
		}
	}
	var sim struct{ accesses, checks, faults float64 }
	for _, p := range eng.Telemetry.Profiles() {
		c := p.Metrics.Snapshot().Counters
		sim.accesses += float64(c["run.loads"] + c["run.stores"])
		sim.checks += float64(c["run.checks"])
		sim.faults += float64(c["run.epc_faults"])
	}
	distinct := map[string]bool{}
	for _, c := range cells {
		distinct[c.label] = true
	}
	cached, run := eng.CacheStats()
	tracedWall := expTotal.Seconds()
	pl := rep.perLayer
	pl["bench.cells_run"] = metric{float64(run), "count"}
	pl["bench.cells_cached"] = metric{float64(cached), "count"}
	pl["bench.cell_ms_p50"] = metric{median(cellDur), "ms"}
	pl["bench.outside_cells_share"] = metric{ratio(float64(expTotal-cellTotal), float64(expTotal)), "ratio"}
	pl["bench.recompute_ratio"] = metric{ratio(float64(run), float64(len(distinct))), "ratio"}
	pl["sim.accesses"] = metric{sim.accesses, "count"}
	pl["sim.checks"] = metric{sim.checks, "count"}
	pl["sim.epc_faults"] = metric{sim.faults, "count"}
	pl["machine.ns_per_access"] = metric{ratio(float64(cellTotal), sim.accesses), "ns"}
	pl["trace.overhead_ratio"] = metric{ratio(tracedWall, rep.endToEnd["wall_s"].Value), "ratio"}
	printMetrics("traced_end_to_end", map[string]metric{
		"wall_s": {tracedWall, "s"},
		"cpu_s":  {cpu, "s"},
	})
	return tr.write(cfg, rep)
}

func runSweep(cfg config) (*report, error) {
	sections, err := loadSections(cfg.root)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if err := sweepEndToEnd(cfg, rep, sections); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}
	printMetrics("untraced_end_to_end", rep.endToEnd)
	if err := sweepTraced(cfg, rep, sections); err != nil {
		return nil, err
	}
	pl := rep.perLayer
	runProbes(pl)
	copyDiag(rep)
	zeroAbsent(pl, servingMetrics)
	zeroAbsent(pl, clusterMetrics)
	zeroAbsent(pl, diagMetrics) // no generator
	return rep, nil
}
