package bench

import (
	"fmt"
	"io"
	"strings"

	"sgxbounds/internal/machine"
	"sgxbounds/internal/workloads"
)

// Default job parameters: the values the evaluation uses when a caller
// doesn't override them (sgxbench's flag defaults, and the canonical form
// of a served job that leaves them unset).
const (
	DefaultThreads  = 8    // worker threads for the multithreaded suites
	DefaultRequests = 2000 // requests per Figure 13 measurement
)

// CSVSink supplies a writer for one named CSV export (fig7, fig8, ...).
// Experiments that produce grids call it once per grid when non-nil; the
// sink owns closing the writer.
type CSVSink func(name string) (io.WriteCloser, error)

// RunOpts carries the cell-grid parameters of one experiment run. The zero
// value selects the evaluation defaults; Job.Canonical documents which
// experiments read which field.
type RunOpts struct {
	Threads  int // multithreaded suites (0 = DefaultThreads)
	Requests int // Figure 13 request count (0 = DefaultRequests)

	// Custom grid parameters ("grid" experiment only).
	Workloads []string
	Policies  []string
	Size      workloads.Size

	// EPCBytes overrides the simulated EPC capacity for experiments that
	// declare UsesEPC (0 = enclave.DefaultEPCBytes).
	EPCBytes uint64

	// CSV, when non-nil, additionally exports grid-shaped results.
	CSV CSVSink
}

func (o RunOpts) threads() int {
	if o.Threads == 0 {
		return DefaultThreads
	}
	return o.Threads
}

func (o RunOpts) requests() int {
	if o.Requests == 0 {
		return DefaultRequests
	}
	return o.Requests
}

// emitCSV renders one grid through the sink, if any.
func emitCSV(sink CSVSink, name string, write func(io.Writer) error) error {
	if sink == nil {
		return nil
	}
	f, err := sink(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Experiment is one named entry of the evaluation — the unit sgxbench's
// -experiment flag and sgxd jobs dispatch on. The registry is the single
// source of truth for experiment names: the sgxbench usage text, the "all"
// sweep, sgxd's /experiments endpoint and job validation all derive from
// it, so the lists cannot drift apart.
type Experiment struct {
	Name string
	Desc string

	// UsesThreads / UsesRequests / UsesGrid / UsesEPC mark which RunOpts
	// fields the experiment reads. Job.Canonical zeroes the rest, so jobs
	// differing only in an ignored parameter share one digest (and one
	// store entry).
	UsesThreads  bool
	UsesRequests bool
	UsesGrid     bool
	UsesEPC      bool

	// Custom marks parameterised experiments excluded from the "all" sweep.
	Custom bool

	Run func(e *Engine, w io.Writer, opts RunOpts) error
}

// Experiments is the registry, in the presentation order of the evaluation
// (the order the "all" sweep runs).
var Experiments = []Experiment{
	{
		Name: "fig1", Desc: "Figure 1: SQLite (minidb) speedtest overheads with growing working sets",
		Run: func(e *Engine, w io.Writer, opts RunOpts) error { e.Fig1(w); return nil },
	},
	{
		Name: "fig2", Desc: "Figure 2: memory hierarchy and relative access costs (the cost model)",
		Run: func(e *Engine, w io.Writer, opts RunOpts) error { Fig2(w); return nil },
	},
	{
		Name: "fig7", Desc: "Figure 7: Phoenix+PARSEC performance and memory overheads", UsesThreads: true,
		Run: func(e *Engine, w io.Writer, opts RunOpts) error {
			grid := e.Fig7(w, opts.threads())
			return emitCSV(opts.CSV, "fig7", func(f io.Writer) error { return WriteGridCSV(f, grid) })
		},
	},
	{
		Name: "fig8", Desc: "Figure 8 + Table 3: overheads and diagnostics with growing working sets", UsesThreads: true,
		Run: func(e *Engine, w io.Writer, opts RunOpts) error {
			res := e.Fig8(w, opts.threads())
			return emitCSV(opts.CSV, "fig8", func(f io.Writer) error { return WriteFig8CSV(f, res) })
		},
	},
	{
		Name: "fig9", Desc: "Figure 9: AddressSanitizer vs SGXBounds with 1 and 4 threads",
		Run: func(e *Engine, w io.Writer, opts RunOpts) error { e.Fig9(w); return nil },
	},
	{
		Name: "fig10", Desc: "Figure 10: SGXBounds optimisation ablation", UsesThreads: true,
		Run: func(e *Engine, w io.Writer, opts RunOpts) error { e.Fig10(w, opts.threads()); return nil },
	},
	{
		Name: "fig11", Desc: "Figure 11: SPEC CPU2006 inside the enclave",
		Run: func(e *Engine, w io.Writer, opts RunOpts) error {
			grid := e.Fig11(w)
			return emitCSV(opts.CSV, "fig11", func(f io.Writer) error { return WriteGridCSV(f, grid) })
		},
	},
	{
		Name: "fig12", Desc: "Figure 12: SPEC CPU2006 outside the enclave",
		Run: func(e *Engine, w io.Writer, opts RunOpts) error {
			grid := e.Fig12(w)
			return emitCSV(opts.CSV, "fig12", func(f io.Writer) error { return WriteGridCSV(f, grid) })
		},
	},
	{
		Name: "fig13", Desc: "Figure 13: Memcached/Apache/Nginx throughput, latency and memory", UsesRequests: true,
		Run: func(e *Engine, w io.Writer, opts RunOpts) error { e.Fig13(w, opts.requests()); return nil },
	},
	{
		Name: "table4", Desc: "Table 4: RIPE security benchmark",
		Run: func(e *Engine, w io.Writer, opts RunOpts) error { e.Table4(w); return nil },
	},
	{
		Name: "grid", Desc: "custom cell grid: chosen workloads x policies at one size", UsesThreads: true, UsesGrid: true, UsesEPC: true, Custom: true,
		Run: func(e *Engine, w io.Writer, opts RunOpts) error {
			ws := make([]workloads.Workload, 0, len(opts.Workloads))
			for _, name := range opts.Workloads {
				wl, err := workloads.Get(name)
				if err != nil {
					return err
				}
				ws = append(ws, wl)
			}
			cfg := machine.DefaultConfig()
			if opts.EPCBytes != 0 {
				cfg.Enclave.EPCBytes = opts.EPCBytes
			}
			grid := e.RunGrid(io.Discard, ws, opts.Policies, opts.Size, opts.threads(), cfg)
			tab := &Table{
				Title:  fmt.Sprintf("Custom grid (%s, %d threads): cycles / peak reserved VM", opts.Size, opts.threads()),
				Header: append([]string{"benchmark"}, opts.Policies...),
			}
			for _, wl := range ws {
				row := []string{wl.Name}
				for _, pol := range opts.Policies {
					r := grid[wl.Name][pol]
					if r.Outcome.Crashed() {
						row = append(row, r.Outcome.String())
					} else {
						row = append(row, fmt.Sprintf("%d / %s", r.Cycles, FmtMB(r.PeakReserved)))
					}
				}
				tab.AddRow(row...)
			}
			tab.Fprint(w)
			return emitCSV(opts.CSV, "grid", func(f io.Writer) error { return WriteGridCSV(f, grid) })
		},
	},
}

// Register appends a custom experiment to the registry (tests and embedders
// extending the served experiment set). It panics on a duplicate or
// reserved name.
func Register(exp Experiment) {
	if exp.Name == "all" || exp.Name == "" {
		panic(fmt.Sprintf("bench: invalid experiment name %q", exp.Name))
	}
	if _, ok := LookupExperiment(exp.Name); ok {
		panic(fmt.Sprintf("bench: duplicate experiment %q", exp.Name))
	}
	Experiments = append(Experiments, exp)
}

// LookupExperiment finds a registry entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, exp := range Experiments {
		if exp.Name == name {
			return exp, true
		}
	}
	return Experiment{}, false
}

// ExperimentNames returns the registry's names in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, exp := range Experiments {
		names[i] = exp.Name
	}
	return names
}

// AllExperimentNames returns the names the "all" sweep runs, in order
// (every non-custom entry).
func AllExperimentNames() []string {
	var names []string
	for _, exp := range Experiments {
		if !exp.Custom {
			names = append(names, exp.Name)
		}
	}
	return names
}

// ExperimentUsage renders the -experiment flag's usage text from the
// registry, so the documented names can never drift from the real set.
func ExperimentUsage() string {
	return strings.Join(ExperimentNames(), " | ") + " | all"
}

// RunExperiment executes one experiment (or "all") on the engine, writing
// the table text to w. This is the single output path shared by sgxbench
// and sgxd: a figure served from the daemon is the same bytes as the same
// figure printed by the CLI.
func RunExperiment(e *Engine, name string, w io.Writer, opts RunOpts) error {
	if name == "all" {
		for _, n := range AllExperimentNames() {
			fmt.Fprintf(w, "\n### %s\n", n)
			exp, _ := LookupExperiment(n)
			if err := exp.Run(e, w, opts); err != nil {
				return err
			}
		}
		return nil
	}
	exp, ok := LookupExperiment(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return exp.Run(e, w, opts)
}
