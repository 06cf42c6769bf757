package bench

import (
	"fmt"
	"io"
	"math"

	"sgxbounds/internal/core"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/workloads"
)

// Grid holds results indexed [workload][policy].
type Grid map[string]map[string]Result

// RunGrid executes every (workload, policy) combination with shared
// parameters, printing one progress line per workload to w (pass io.Discard
// to silence). Cells are fanned across the engine's worker pool; the grid
// and the lines printed to w are identical for every worker count.
func (e *Engine) RunGrid(w io.Writer, ws []workloads.Workload, policies []string,
	size workloads.Size, threads int, cfg machine.Config) Grid {
	specs := make([]Spec, 0, len(ws)*len(policies))
	for _, wl := range ws {
		for _, pol := range policies {
			specs = append(specs, Spec{Workload: wl.Name, Policy: pol, Size: size, Threads: threads, Config: cfg})
		}
	}
	results := e.RunAll(specs)
	grid := make(Grid, len(ws))
	for i, wl := range ws {
		row := make(map[string]Result, len(policies))
		for j, pol := range policies {
			row[pol] = results[i*len(policies)+j]
		}
		grid[wl.Name] = row
		fmt.Fprintf(w, "  %-18s done\n", wl.Name)
	}
	return grid
}

// overheadOrNaN computes r/base perf overhead; crashed runs are NaN.
func overheadOrNaN(row map[string]Result, pol, base string) float64 {
	r, b := row[pol], row[base]
	if r.Outcome.Crashed() {
		return math.NaN()
	}
	return Overhead(r, b)
}

func memOverheadOrNaN(row map[string]Result, pol, base string) float64 {
	r, b := row[pol], row[base]
	if r.Outcome.Crashed() {
		return math.NaN()
	}
	return MemOverhead(r, b)
}

// SuiteComparison runs the Figure 7 / Figure 11 experiment shape: every
// workload of a set under the four mechanisms, reporting performance and
// memory overheads over the native SGX baseline plus the geometric mean.
func (e *Engine) SuiteComparison(w io.Writer, title string, ws []workloads.Workload,
	size workloads.Size, threads int, cfg machine.Config) Grid {
	grid := e.RunGrid(w, ws, PolicyNames, size, threads, cfg)

	perf := &Table{Title: title + ": performance overhead over native SGX",
		Header: []string{"benchmark", "mpx", "asan", "sgxbounds"}}
	mem := &Table{Title: title + ": memory overhead (reserved VM) over native SGX",
		Header: []string{"benchmark", "mpx", "asan", "sgxbounds"}}
	var po, ao, so, pm, am, sm []float64
	for _, wl := range ws {
		row := grid[wl.Name]
		p, a, s := overheadOrNaN(row, "mpx", "sgx"), overheadOrNaN(row, "asan", "sgx"), overheadOrNaN(row, "sgxbounds", "sgx")
		perf.AddRow(wl.Name, FmtX(p), FmtX(a), FmtX(s))
		po, ao, so = append(po, p), append(ao, a), append(so, s)
		mp, ma, ms := memOverheadOrNaN(row, "mpx", "sgx"), memOverheadOrNaN(row, "asan", "sgx"), memOverheadOrNaN(row, "sgxbounds", "sgx")
		mem.AddRow(wl.Name, FmtX(mp), FmtX(ma), FmtX(ms))
		pm, am, sm = append(pm, mp), append(am, ma), append(sm, ms)
	}
	perf.AddRow("gmean", FmtX(Gmean(po)), FmtX(Gmean(ao)), FmtX(Gmean(so)))
	mem.AddRow("gmean", FmtX(Gmean(pm)), FmtX(Gmean(am)), FmtX(Gmean(sm)))
	perf.Fprint(w)
	mem.Fprint(w)
	return grid
}

// Fig7 reproduces Figure 7: Phoenix and PARSEC overheads with 8 threads.
func (e *Engine) Fig7(w io.Writer, threads int) Grid {
	return e.SuiteComparison(w, "Figure 7 (Phoenix+PARSEC)", workloads.PhoenixParsec(),
		workloads.L, threads, machine.DefaultConfig())
}

// Fig11 reproduces Figure 11: SPEC CPU2006 inside the enclave.
func (e *Engine) Fig11(w io.Writer) Grid {
	return e.SuiteComparison(w, "Figure 11 (SPEC, inside SGX)", workloads.Suite("spec"),
		workloads.L, 1, machine.DefaultConfig())
}

// Fig12 reproduces Figure 12: SPEC CPU2006 outside the enclave (normal,
// unconstrained environment).
func (e *Engine) Fig12(w io.Writer) Grid {
	return e.SuiteComparison(w, "Figure 12 (SPEC, outside SGX)", workloads.Suite("spec"),
		workloads.L, 1, machine.NativeConfig())
}

// Fig8Workloads is the working-set sweep set.
var Fig8Workloads = []string{"kmeans", "matrixmul", "wordcount", "linear_regression"}

// Fig8Result carries the sweep grid indexed [workload][size][policy].
type Fig8Result map[string]map[workloads.Size]map[string]Result

// Fig8 reproduces Figure 8 and Table 3: overheads over SGXBounds with
// growing working sets, plus the diagnostic columns (working set, LLC
// misses, page faults, bounds tables).
func (e *Engine) Fig8(w io.Writer, threads int) Fig8Result {
	sizes := []workloads.Size{workloads.XS, workloads.S, workloads.M, workloads.L, workloads.XL}
	policies := []string{"sgx", "sgxbounds", "asan", "mpx"}
	var specs []Spec
	for _, name := range Fig8Workloads {
		for _, size := range sizes {
			for _, pol := range policies {
				specs = append(specs, Spec{Workload: name, Policy: pol, Size: size, Threads: threads})
			}
		}
	}
	results := e.RunAll(specs)
	out := make(Fig8Result)
	i := 0
	for _, name := range Fig8Workloads {
		out[name] = make(map[workloads.Size]map[string]Result)
		for _, size := range sizes {
			row := make(map[string]Result)
			for _, pol := range policies {
				row[pol] = results[i]
				i++
			}
			out[name][size] = row
		}
		fmt.Fprintf(w, "  %-18s swept\n", name)
	}

	fig := &Table{Title: "Figure 8: performance overhead over SGXBounds, growing working sets",
		Header: []string{"benchmark", "size", "asan", "mpx", "(sgxbounds vs native)"}}
	tab3 := &Table{Title: "Table 3: diagnostics for the working-set sweep",
		Header: []string{"benchmark", "size", "ws", "LLCmiss asan", "LLCmiss mpx", "PF asan", "PF mpx", "#BTs"}}
	for _, name := range Fig8Workloads {
		for _, size := range sizes {
			row := out[name][size]
			fig.AddRow(name, size.String(),
				FmtX(overheadOrNaN(row, "asan", "sgxbounds")),
				FmtX(overheadOrNaN(row, "mpx", "sgxbounds")),
				FmtX(overheadOrNaN(row, "sgxbounds", "sgx")))
			sb := row["sgxbounds"]
			llc := func(pol string) string {
				r := row[pol]
				if r.Outcome.Crashed() || sb.Totals.LLCMisses() == 0 {
					return "-"
				}
				return fmt.Sprintf("%+.1f%%", 100*(float64(r.Totals.LLCMisses())/float64(sb.Totals.LLCMisses())-1))
			}
			pf := func(pol string) string {
				r := row[pol]
				if r.Outcome.Crashed() || sb.PageFaults == 0 {
					return "-"
				}
				return fmt.Sprintf("%.1fx", float64(r.PageFaults)/float64(sb.PageFaults))
			}
			tab3.AddRow(name, size.String(), FmtMB(row["sgx"].PeakReserved),
				llc("asan"), llc("mpx"), pf("asan"), pf("mpx"),
				fmt.Sprintf("%d", row["mpx"].BoundsTables))
		}
	}
	fig.Fprint(w)
	tab3.Fprint(w)
	return out
}

// Fig9 reproduces Figure 9: AddressSanitizer and SGXBounds overheads with
// one and four threads.
func (e *Engine) Fig9(w io.Writer) map[int]Grid {
	out := make(map[int]Grid)
	ws := workloads.PhoenixParsec()
	tab := &Table{Title: "Figure 9: overhead over native SGX, 1 vs 4 threads",
		Header: []string{"benchmark", "asan@1", "sgxbounds@1", "asan@4", "sgxbounds@4"}}
	pols := []string{"sgx", "asan", "sgxbounds"}
	for _, threads := range []int{1, 4} {
		out[threads] = e.RunGrid(io.Discard, ws, pols, workloads.L, threads, machine.DefaultConfig())
		fmt.Fprintf(w, "  %d-thread grid done\n", threads)
	}
	var a1, s1, a4, s4 []float64
	for _, wl := range ws {
		r1, r4 := out[1][wl.Name], out[4][wl.Name]
		va1, vs1 := overheadOrNaN(r1, "asan", "sgx"), overheadOrNaN(r1, "sgxbounds", "sgx")
		va4, vs4 := overheadOrNaN(r4, "asan", "sgx"), overheadOrNaN(r4, "sgxbounds", "sgx")
		tab.AddRow(wl.Name, FmtX(va1), FmtX(vs1), FmtX(va4), FmtX(vs4))
		a1, s1, a4, s4 = append(a1, va1), append(s1, vs1), append(a4, va4), append(s4, vs4)
	}
	tab.AddRow("gmean", FmtX(Gmean(a1)), FmtX(Gmean(s1)), FmtX(Gmean(a4)), FmtX(Gmean(s4)))
	tab.Fprint(w)
	return out
}

// OptVariants are the Figure 10 ablation configurations.
var OptVariants = []struct {
	Name string
	Opts core.Options
}{
	{"none", core.Options{}},
	{"safe", core.Options{SafeElision: true}},
	{"hoist", core.Options{Hoisting: true}},
	{"all", core.AllOptimizations()},
}

// Fig10 reproduces Figure 10: SGXBounds overhead over native SGX under each
// optimisation variant.
func (e *Engine) Fig10(w io.Writer, threads int) map[string]map[string]Result {
	ws := workloads.PhoenixParsec()
	stride := 1 + len(OptVariants)
	specs := make([]Spec, 0, len(ws)*stride)
	for _, wl := range ws {
		specs = append(specs, Spec{Workload: wl.Name, Policy: "sgx", Size: workloads.L, Threads: threads})
		for _, v := range OptVariants {
			specs = append(specs, Spec{Workload: wl.Name, Policy: "sgxbounds", Size: workloads.L,
				Threads: threads, CoreOpts: v.Opts, CoreOptsSet: true})
		}
	}
	results := e.RunAll(specs)

	out := make(map[string]map[string]Result)
	tab := &Table{Title: "Figure 10: SGXBounds optimisation ablation (overhead over native SGX)",
		Header: []string{"benchmark", "none", "safe", "hoist", "all"}}
	gm := map[string][]float64{}
	for i, wl := range ws {
		base := results[i*stride]
		row := map[string]Result{"sgx": base}
		cells := []string{wl.Name}
		for j, v := range OptVariants {
			r := results[i*stride+1+j]
			row[v.Name] = r
			ov := math.NaN()
			if !r.Outcome.Crashed() {
				ov = Overhead(r, base)
			}
			gm[v.Name] = append(gm[v.Name], ov)
			cells = append(cells, FmtX(ov))
		}
		tab.AddRow(cells...)
		out[wl.Name] = row
		fmt.Fprintf(w, "  %-18s done\n", wl.Name)
	}
	tab.AddRow("gmean", FmtX(Gmean(gm["none"])), FmtX(Gmean(gm["safe"])),
		FmtX(Gmean(gm["hoist"])), FmtX(Gmean(gm["all"])))
	tab.Fprint(w)
	return out
}
