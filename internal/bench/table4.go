package bench

import (
	"fmt"
	"io"

	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/ripe"
	"sgxbounds/internal/telemetry"
)

// Table4Policies are the mechanisms of the RIPE comparison, in presentation
// order.
var Table4Policies = []string{"sgx", "mpx", "asan", "sgxbounds", "baggy"}

// ripeKey is the memo identity of one RIPE cell.
type ripeKey struct{ policy string }

// ripeCell is the cell of one mechanism's RIPE attack sweep, labelled
// "table4:policy". The sweep builds a fresh machine per attack, carries no
// telemetry profile and, not running through Capture, is only ever skipped
// whole by cancellation, never aborted midway.
func ripeCell(policy string) cell[ripe.Summary] {
	return cell[ripe.Summary]{
		key:    ripeKey{policy},
		label:  "table4:" + policy,
		policy: policy,
		run: func(*telemetry.Profile) (ripe.Summary, uint64) {
			return ripe.RunAll(func() *harden.Ctx {
				env := harden.NewEnv(machine.DefaultConfig())
				p, err := NewPolicy(policy, env, core.AllOptimizations())
				if err != nil {
					panic(err)
				}
				return harden.NewCtx(p, env.M.NewThread())
			}), 0
		},
	}
}

// Table4 reproduces the RIPE security benchmark results (§6.6): how many of
// the 16 attacks that work under shielded execution each mechanism
// prevents. Each mechanism's attack sweep is one independent cell on the
// engine's worker pool.
func (e *Engine) Table4(w io.Writer) map[string]ripe.Summary {
	cells := make([]cell[ripe.Summary], len(Table4Policies))
	for i, pol := range Table4Policies {
		cells[i] = ripeCell(pol)
	}
	summaries := make([]ripe.Summary, len(cells))
	runCells(e, cells, summaries)

	out := make(map[string]ripe.Summary)
	fmt.Fprintf(w, "RIPE funnel: %d attacks work natively; the %d shellcode-based ones fail\n"+
		"under shielded execution (SGX disallows the int instruction), leaving %d:\n",
		len(ripe.Attacks)+len(ripe.ShellcodeAttacks), len(ripe.ShellcodeAttacks), len(ripe.Attacks))
	tab := &Table{Title: "Table 4: RIPE security benchmark (16 working attacks under shielded execution)",
		Header: []string{"approach", "prevented", "succeeded", "defeated", "notes"}}
	notes := map[string]string{
		"sgx":       "no protection",
		"mpx":       "except return-into-libc on heap & data (string interceptors inactive)",
		"asan":      "except in-struct buffer overflows",
		"sgxbounds": "except in-struct buffer overflows",
		"baggy":     "stack attacks defeated by object relocation (extension baseline)",
	}
	for i, pol := range Table4Policies {
		s := summaries[i]
		out[pol] = s
		tab.AddRow(pol, fmt.Sprintf("%d/16", s.Prevented),
			fmt.Sprintf("%d/16", s.Succeeded), fmt.Sprintf("%d/16", s.Failed), notes[pol])
	}
	tab.Fprint(w)

	detail := &Table{Title: "Table 4 detail: per-attack outcomes",
		Header: []string{"attack", "sgx", "mpx", "asan", "sgxbounds", "baggy"}}
	for _, a := range ripe.Attacks {
		row := []string{a.Name()}
		for _, pol := range Table4Policies {
			row = append(row, out[pol].PerAttack[a.Name()].String())
		}
		detail.AddRow(row...)
	}
	detail.Fprint(w)
	return out
}
