// Command perfbench is the repository benchmark. It builds nothing itself
// (perfbench/run.sh builds sgxbench, sgxd and this program from the
// checkout) and runs one workload per invocation against the programs built
// from that checkout:
//
//	perfbench -root DIR -bin DIR --workload sweep|serve-cold|fleet --seed N --seconds S --trace 0|1
//
// Every op's output is checked. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run (which also re-runs the workload
// untraced with the same seed and prints both end-to-end sets, so their
// difference is the tracing overhead). Latency percentiles and host-noise
// diagnostics are printed on the line before it. See perfbench/NOTES.md for
// the workloads and the definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produced.
type report struct {
	attempted, failed int
	endToEnd          map[string]metric
	diag              map[string]metric
	perLayer          map[string]metric
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		diag:     map[string]metric{},
		perLayer: map[string]metric{},
	}
}

// fail counts one failed op or experiment and logs why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// endToEndUnits fixes the end-to-end metric set; every workload reports
// each of them.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"wall_s":      "s",
	"cpu_s":       "s",
	"peak_rss_mb": "MB",
}

// config is one invocation.
type config struct {
	root, bin string
	workload  string
	seed      int64
	seconds   int
	trace     bool
	runDir    string // scratch space for this run, under .bench_build
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.root, "root", ".", "root of the sgxbounds checkout")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built sgxbench and sgxd")
	flag.StringVar(&cfg.workload, "workload", "", "sweep | serve-cold | fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		return err
	}
	if cfg.bin, err = filepath.Abs(cfg.bin); err != nil {
		return err
	}
	cfg.runDir = filepath.Join(cfg.root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(cfg.runDir); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.runDir)

	var rep *report
	switch cfg.workload {
	case "sweep":
		rep, err = runSweep(cfg)
	case "serve-cold":
		rep, err = runServeCold(cfg)
	case "fleet":
		rep, err = runFleet(cfg)
	default:
		return fmt.Errorf("unknown -workload %q (want sweep, serve-cold or fleet)", cfg.workload)
	}
	if err != nil {
		return err
	}
	return emit(cfg, rep)
}

// emit prints the diagnostics line and then the result line.
func emit(cfg config, rep *report) error {
	metrics := rep.endToEnd
	if cfg.trace {
		metrics = rep.perLayer
		for _, m := range perLayerMetrics {
			if v, ok := metrics[m.name]; !ok || v.Unit != m.unit {
				return fmt.Errorf("traced %s run did not produce %s in %s", cfg.workload, m.name, m.unit)
			}
		}
	} else {
		for name, unit := range endToEndUnits {
			if m, ok := metrics[name]; !ok || m.Unit != unit {
				return fmt.Errorf("%s run did not produce %s in %s", cfg.workload, name, unit)
			}
		}
	}
	printMetrics("diagnostics", rep.diag)
	if rep.attempted < 1 {
		return fmt.Errorf("%s run attempted no ops", cfg.workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics writes one labelled JSON line of metrics (encoding/json
// sorts the keys).
func printMetrics(label string, ms map[string]metric) {
	b, _ := json.Marshal(ms) // a map of plain numbers and strings
	fmt.Printf("%s %s\n", label, b)
}
