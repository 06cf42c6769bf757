package bench

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"sgxbounds/internal/apps/minidb"
	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/perf"
	"sgxbounds/internal/telemetry"
)

// Fig1Budget is the enclave size used for the SQLite case study. SCONE
// sizes enclaves per application; the database enclave is deliberately
// small, which is the scaled analogue of SQLite's situation in Figure 1
// (MPX's bounds tables exhaust the enclave at the smallest working set).
const Fig1Budget = 64 << 20

// Fig1Items is the working-set sweep (rows in the table), the scaled
// analogue of the paper's 100..4000 speedtest items.
var Fig1Items = []uint32{16000, 24000, 32000, 48000, 64000}

// Fig1Row is one (policy, items) measurement.
type Fig1Row struct {
	Items        uint32
	Policy       string
	Outcome      harden.Outcome
	Cycles       uint64
	PeakReserved uint64
	PageFaults   uint64
	Totals       perf.Counters
}

// RunSpeedtest executes the minidb speedtest under one policy in a
// database-sized enclave.
func RunSpeedtest(policy string, items uint32) Fig1Row {
	return runSpeedtest(policy, items, nil, nil)
}

func runSpeedtest(policy string, items uint32, tel *telemetry.Profile, cancel *atomic.Bool) Fig1Row {
	cfg := machine.DefaultConfig()
	cfg.MemoryBudget = Fig1Budget
	cfg.Tel = tel
	cfg.Cancel = cancel
	m := simulate(cfg, policy, core.AllOptimizations(), func(ctx *harden.Ctx) {
		minidb.Speedtest(ctx, items)
	})
	return Fig1Row{Items: items, Policy: policy, Outcome: m.outcome, Cycles: m.cycles,
		PeakReserved: m.peakReserved, PageFaults: m.pageFaults, Totals: m.totals}
}

// speedKey is the memo identity of one speedtest cell.
type speedKey struct {
	policy string
	items  uint32
}

// speedCell is the cell of one speedtest, labelled "fig1:policy/items".
func (e *Engine) speedCell(policy string, items uint32) cell[Fig1Row] {
	return cell[Fig1Row]{
		key:      speedKey{policy: policy, items: items},
		label:    fmt.Sprintf("fig1:%s/%d", policy, items),
		profiled: true,
		policy:   policy,
		skipped:  Fig1Row{Items: items, Policy: policy, Outcome: harden.Outcome{Canceled: true}},
		run: func(tel *telemetry.Profile) (Fig1Row, uint64) {
			r := runSpeedtest(policy, items, tel, e.cancel)
			return r, r.Totals.Cycles
		},
	}
}

// RunSpeedtest executes (or recalls) one speedtest cell through the
// engine's cache.
func (e *Engine) RunSpeedtest(policy string, items uint32) Fig1Row {
	return runCell(e, e.speedCell(policy, items))
}

// Fig1 reproduces Figure 1: SQLite speedtest performance and memory
// overheads with increasing working-set items, inside the enclave.
func (e *Engine) Fig1(w io.Writer) map[uint32]map[string]Fig1Row {
	return e.Fig1Sweep(w, Fig1Items)
}

// Fig1Sweep runs the Figure 1 tables over an arbitrary item sweep. Cells
// are fanned across the engine's worker pool; output is byte-identical for
// every worker count.
func (e *Engine) Fig1Sweep(w io.Writer, itemsList []uint32) map[uint32]map[string]Fig1Row {
	cells := make([]cell[Fig1Row], len(itemsList)*len(PolicyNames))
	for i := range cells {
		cells[i] = e.speedCell(PolicyNames[i%len(PolicyNames)], itemsList[i/len(PolicyNames)])
	}
	rows := make([]Fig1Row, len(cells))
	runCells(e, cells, rows)

	out := make(map[uint32]map[string]Fig1Row)
	perfT := &Table{Title: "Figure 1: SQLite (minidb) speedtest — performance overhead over native SGX",
		Header: []string{"items", "mpx", "asan", "sgxbounds"}}
	memT := &Table{Title: "Figure 1: SQLite (minidb) speedtest — peak reserved VM",
		Header: []string{"items", "sgx", "mpx", "asan", "sgxbounds"}}
	for k, items := range itemsList {
		row := make(map[string]Fig1Row, len(PolicyNames))
		for j, pol := range PolicyNames {
			row[pol] = rows[k*len(PolicyNames)+j]
		}
		out[items] = row
		base := row["sgx"]
		ov := func(pol string) float64 {
			r := row[pol]
			if r.Outcome.Crashed() || base.Cycles == 0 {
				return math.NaN()
			}
			return float64(r.Cycles) / float64(base.Cycles)
		}
		mem := func(pol string) string {
			r := row[pol]
			if r.Outcome.Crashed() {
				return "OOM"
			}
			return FmtMB(r.PeakReserved)
		}
		perfT.AddRow(fmt.Sprintf("%d", items), FmtX(ov("mpx")), FmtX(ov("asan")), FmtX(ov("sgxbounds")))
		memT.AddRow(fmt.Sprintf("%d", items), mem("sgx"), mem("mpx"), mem("asan"), mem("sgxbounds"))
		fmt.Fprintf(w, "  %d items done\n", items)
	}
	perfT.Fprint(w)
	memT.Fprint(w)
	return out
}
