package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/workloads"
)

// cell is one (workload, policy, size) grid cell.
type cell struct{ workload, policy, size string }

func (c cell) req() sched.SubmitRequest {
	return sched.SubmitRequest{
		Experiment: "grid", Size: c.size,
		Workloads: []string{c.workload}, Policies: []string{c.policy},
	}
}

// allCells lists every registered workload under the four paper policies
// at one size, in registry order.
func allCells(size string) []cell {
	var out []cell
	for _, w := range workloads.All() {
		for _, p := range bench.PolicyNames {
			out = append(out, cell{w.Name, p, size})
		}
	}
	return out
}

// serveColdMix fixes which jobs a serve-cold run submits, so that every
// seed offers the same compute; the seed only orders and times them and
// picks which ones are duplicated and repeated.
type serveColdMix struct {
	cold    []cell    // distinct single-cell jobs
	grids   [][2]cell // 2x2 XS grids whose four cells are also cold jobs: {w1,p1} x {w2,p2}
	dups    int       // submissions of a job still in flight
	repeats int       // submissions of a job finished seconds earlier
}

// skipXS leaves out the XS cells that would each decide a serve-cold
// number on their own. ferret, kmeans and pca take 70-290 ms at one
// worker, so queue wait behind them, not serving, set the latency
// percentiles. mcf, xalancbmk and astar under mpx each allocate 30-40 MB
// of bounds tables, so the daemon's peak RSS was one such cell plus
// however much garbage the GC had not yet collected, which varied by a
// third from run to run.
func skipXS(c cell) bool {
	switch c.workload {
	case "ferret", "kmeans", "pca":
		return true
	case "mcf", "xalancbmk", "astar":
		return c.policy == "mpx"
	}
	return false
}

// defaultServeColdMix is every XS cell but skipXS's, eight S cells of
// 50-85 ms covering the four policies, and eight grids.
func defaultServeColdMix() serveColdMix {
	m := serveColdMix{dups: 21, repeats: 30}
	for _, c := range allCells("XS") {
		if !skipXS(c) {
			m.cold = append(m.cold, c)
		}
	}
	for _, s := range [][2]string{
		{"swaptions", "sgx"}, {"lbm", "sgx"}, {"matrixmul", "mpx"}, {"streamcluster", "mpx"},
		{"sjeng", "mpx"}, {"bodytrack", "asan"}, {"milc", "sgxbounds"}, {"wordcount", "sgxbounds"},
	} {
		m.cold = append(m.cold, cell{s[0], s[1], "S"})
	}
	grids := [][2]string{
		{"histogram", "string_match"}, {"linear_regression", "matrixmul"}, {"blackscholes", "fluidanimate"},
		{"x264", "vips"}, {"gobmk", "h264ref"}, {"libquantum", "milc"},
		{"astar", "xalancbmk"}, {"multitask", "transition_storm"},
	}
	pols := [][2]string{{"sgx", "sgxbounds"}, {"asan", "mpx"}, {"sgx", "asan"}, {"sgxbounds", "mpx"}}
	for i, g := range grids {
		p := pols[i%len(pols)]
		m.grids = append(m.grids, [2]cell{{g[0], p[0], "XS"}, {g[1], p[1], "XS"}})
	}
	return m
}

// gridReq is the 2x2 grid over the pair's workloads and policies.
func gridReq(g [2]cell) sched.SubmitRequest {
	return sched.SubmitRequest{
		Experiment: "grid", Size: g[0].size,
		Workloads: []string{g[0].workload, g[1].workload},
		Policies:  []string{g[0].policy, g[1].policy},
	}
}

// serveColdSchedule builds the seeded open-loop schedule over span:
// the cold jobs arrive as a Poisson stream in a seeded order; each grid
// follows the last of its cells by up to 3 s; duplicates trail a job by
// 1-10 ms; repeats trail a job by 3-6 s. Ops that would fall past the
// span are dropped.
func serveColdSchedule(seed int64, span time.Duration, mix serveColdMix) []op {
	rng := rand.New(rand.NewSource(seed))
	cold := append([]cell(nil), mix.cold...)
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	at := arrivals(rng, len(cold), span)
	var ops []op
	when := map[cell]time.Duration{}
	for i, c := range cold {
		ops = append(ops, op{At: at[i], Kind: kindCold, Req: c.req()})
		when[c] = at[i]
	}
	later := func(base time.Duration, lo, hi time.Duration) time.Duration {
		return base + lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	for _, g := range mix.grids {
		last := time.Duration(0)
		for _, w := range []string{g[0].workload, g[1].workload} {
			for _, p := range []string{g[0].policy, g[1].policy} {
				last = max(last, when[cell{w, p, g[0].size}])
			}
		}
		// Within the span even when its last cell arrives near the end, so
		// that every seed offers every grid.
		hi := min(3*time.Second, span-last)
		ops = append(ops, op{At: later(last, hi/10, hi), Kind: kindGrid, Req: gridReq(g)})
	}
	for d := 0; d < mix.dups; d++ {
		o := ops[rng.Intn(len(cold))]
		ops = append(ops, op{At: later(o.At, time.Millisecond, 10*time.Millisecond), Kind: kindDup, Req: o.Req})
	}
	for r := 0; r < mix.repeats; r++ {
		o := ops[rng.Intn(len(cold))]
		ops = append(ops, op{At: later(o.At, 3*time.Second, 6*time.Second), Kind: kindRepeat, Req: o.Req})
	}
	return finalize(ops, span)
}

// serveColdSchedules splits the mix into serveColdParts fixed shares (every
// part-th cold cell and grid, an equal share of duplicates and repeats) and
// schedules each over its share of the span, with a seed derived per part.
func serveColdSchedules(seed int64, span time.Duration, mix serveColdMix) [][]op {
	parts := make([][]op, serveColdParts)
	for k := range parts {
		m := serveColdMix{dups: mix.dups / serveColdParts, repeats: mix.repeats / serveColdParts}
		for i, c := range mix.cold {
			if i%serveColdParts == k {
				m.cold = append(m.cold, c)
			}
		}
		for i, g := range mix.grids {
			if i%serveColdParts == k {
				m.grids = append(m.grids, g)
			}
		}
		parts[k] = serveColdSchedule(seed*serveColdParts+int64(k), span/serveColdParts, m)
	}
	return parts
}

// joinParts lays the parts end to end on one timeline, partSpan apart.
func joinParts(parts [][]op, partSpan time.Duration) []op {
	var all []op
	for k, ops := range parts {
		for _, o := range ops {
			o.At += time.Duration(k) * partSpan
			all = append(all, o)
		}
	}
	return finalize(all, time.Duration(len(parts))*partSpan)
}

// finalize drops ops past the span, orders the rest by time and numbers
// them.
func finalize(ops []op, span time.Duration) []op {
	kept := ops[:0]
	for _, o := range ops {
		if o.At < span {
			kept = append(kept, o)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].At < kept[j].At })
	for i := range kept {
		kept[i].Seq = i
	}
	return kept
}

// references computes every distinct job of the schedule in-process, on
// one engine (which memoises cells shared between jobs), keyed by the
// job's content address. It runs outside the timed phase.
func references(ops []op) (map[string]string, error) {
	eng := bench.NewEngine(0)
	refs := map[string]string{}
	for i := range ops {
		k := ops[i].key()
		if _, ok := refs[k]; ok {
			continue
		}
		var buf bytes.Buffer
		if err := bench.RunJob(eng, ops[i].Req.Job(), &buf, nil); err != nil {
			return nil, fmt.Errorf("reference for op %d: %w", ops[i].Seq, err)
		}
		refs[k] = buf.String()
	}
	return refs, nil
}

// checkOutcomes counts every op as attempted, and fails those that were
// not sent on schedule, were refused, timed out, or whose bytes differ from
// the in-process reference or from the first copy of the same job.
func checkOutcomes(rep *report, outs []outcome, refs map[string]string) {
	first := map[string]string{}
	for i := range outs {
		o := &outs[i]
		rep.attempted++
		if o.err != nil {
			rep.fail("op %d (%s): %v", o.op.Seq, o.op.Kind, o.err)
			continue
		}
		k := o.op.key()
		if o.body != refs[k] {
			rep.fail("op %d (%s): result differs from the in-process reference", o.op.Seq, o.op.Kind)
			continue
		}
		if f, ok := first[k]; ok && f != o.body {
			rep.fail("op %d (%s): result differs from the first copy", o.op.Seq, o.op.Kind)
			continue
		}
		first[k] = o.body
	}
}

// generatorDiag reports how late the generator ran and what share of the
// schedule it issued on time.
func generatorDiag(rep *report, outs []outcome) {
	var late []float64
	issued := 0
	for i := range outs {
		if outs[i].sent {
			late = append(late, ms(outs[i].late))
			if outs[i].late <= lateLimit {
				issued++
			}
		}
	}
	rep.diag["gen.late_ms_p99"] = metric{percentile(late, 99), "ms"}
	rep.diag["gen.issued_share"] = metric{ratio(float64(issued), float64(len(outs))), "ratio"}
}
