// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus the ablation benchmarks DESIGN.md calls out.
//
// Each figure benchmark executes a scaled-down instance of its experiment
// per iteration and reports the headline ratios as custom metrics. The
// full-scale tables come from `go run ./cmd/sgxbench -experiment <name>`
// (fig1, fig7 ... fig13, table4), or `-experiment all` for every one.

package sgxbounds

import (
	"io"
	"testing"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/ripe"
	"sgxbounds/internal/workloads"
)

// reportOverhead runs one workload under a policy pair and reports the
// slowdown ratio.
func reportOverhead(b *testing.B, workload, policy string, size workloads.Size, threads int, cfg machine.Config) {
	b.Helper()
	var ratio float64
	for i := 0; i < b.N; i++ {
		base := bench.Run(bench.Spec{Workload: workload, Policy: "sgx", Size: size, Threads: threads, Config: cfg})
		r := bench.Run(bench.Spec{Workload: workload, Policy: policy, Size: size, Threads: threads, Config: cfg})
		if r.Outcome.Crashed() {
			b.Fatalf("%s under %s crashed: %v", workload, policy, r.Outcome)
		}
		ratio = bench.Overhead(r, base)
	}
	b.ReportMetric(ratio, "x-overhead")
}

// BenchmarkFig1SQLite regenerates the Figure 1 rows: the minidb speedtest
// under each mechanism at the smallest working set.
func BenchmarkFig1SQLite(b *testing.B) {
	for _, pol := range []string{"sgx", "asan", "sgxbounds"} {
		b.Run(pol, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				r := bench.RunSpeedtest(pol, 16000)
				if r.Outcome.Crashed() {
					b.Fatalf("%v", r.Outcome)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
	b.Run("mpx-oom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := bench.RunSpeedtest("mpx", 16000); !r.Outcome.OOM {
				b.Fatalf("MPX speedtest did not exhaust the enclave: %v", r.Outcome)
			}
		}
	})
}

// BenchmarkFig7Suite regenerates Figure 7 rows for a representative subset
// (one flat, one pointer-heavy, one allocation-churn benchmark).
func BenchmarkFig7Suite(b *testing.B) {
	for _, wl := range []string{"histogram", "pca", "swaptions", "kmeans"} {
		for _, pol := range []string{"mpx", "asan", "sgxbounds"} {
			b.Run(wl+"/"+pol, func(b *testing.B) {
				reportOverhead(b, wl, pol, workloads.S, 8, machine.DefaultConfig())
			})
		}
	}
}

// BenchmarkFig8WorkingSet regenerates the Figure 8 crossover: kmeans at the
// size where MPX's bounds tables push it past the EPC.
func BenchmarkFig8WorkingSet(b *testing.B) {
	for _, size := range []workloads.Size{workloads.S, workloads.M, workloads.L} {
		b.Run("kmeans-mpx-"+size.String(), func(b *testing.B) {
			reportOverhead(b, "kmeans", "mpx", size, 8, machine.DefaultConfig())
		})
	}
}

// BenchmarkFig9Threads regenerates the Figure 9 comparison at 1 and 4
// threads.
func BenchmarkFig9Threads(b *testing.B) {
	for _, threads := range []int{1, 4} {
		for _, pol := range []string{"asan", "sgxbounds"} {
			b.Run(pol+"/"+string(rune('0'+threads))+"t", func(b *testing.B) {
				reportOverhead(b, "matrixmul", pol, workloads.S, threads, machine.DefaultConfig())
			})
		}
	}
}

// BenchmarkFig10Opts regenerates the Figure 10 ablation on the benchmarks
// the paper highlights (kmeans, matrixmul, x264).
func BenchmarkFig10Opts(b *testing.B) {
	for _, wl := range []string{"kmeans", "matrixmul", "x264"} {
		for _, v := range bench.OptVariants {
			b.Run(wl+"/"+v.Name, func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					base := bench.Run(bench.Spec{Workload: wl, Policy: "sgx", Size: workloads.S, Threads: 8})
					r := bench.Run(bench.Spec{Workload: wl, Policy: "sgxbounds", Size: workloads.S,
						Threads: 8, CoreOpts: v.Opts, CoreOptsSet: true})
					ratio = bench.Overhead(r, base)
				}
				b.ReportMetric(ratio, "x-overhead")
			})
		}
	}
}

// BenchmarkFig11SPEC regenerates Figure 11 rows: SPEC kernels inside the
// enclave, including the mcf case (ASan's page-fault amplification).
func BenchmarkFig11SPEC(b *testing.B) {
	for _, wl := range []string{"mcf", "lbm", "sjeng", "libquantum"} {
		for _, pol := range []string{"asan", "sgxbounds"} {
			b.Run(wl+"/"+pol, func(b *testing.B) {
				reportOverhead(b, wl, pol, workloads.S, 1, machine.DefaultConfig())
			})
		}
	}
}

// BenchmarkFig12SPECOutside regenerates Figure 12 rows: the same kernels in
// a normal, unconstrained environment, where SGXBounds loses its edge.
func BenchmarkFig12SPECOutside(b *testing.B) {
	for _, wl := range []string{"mcf", "lbm", "sjeng", "libquantum"} {
		for _, pol := range []string{"asan", "sgxbounds"} {
			b.Run(wl+"/"+pol, func(b *testing.B) {
				reportOverhead(b, wl, pol, workloads.S, 1, machine.NativeConfig())
			})
		}
	}
}

// BenchmarkFig13Memcached, ...Apache and ...Nginx regenerate the Figure 13
// service costs.
func benchmarkApp(b *testing.B, app string) {
	b.Helper()
	for _, pol := range bench.PolicyNames {
		b.Run(pol, func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				r := bench.MeasureApp(app, pol, 400)
				if r.Outcome.Crashed() {
					if pol == "mpx" {
						b.Skipf("mpx: %v (the paper's crash mode)", r.Outcome)
					}
					b.Fatalf("%v", r.Outcome)
				}
				tput = r.Throughput()
			}
			b.ReportMetric(tput, "req/sim-s")
		})
	}
}

func BenchmarkFig13Memcached(b *testing.B) { benchmarkApp(b, "memcached") }

func BenchmarkFig13Apache(b *testing.B) { benchmarkApp(b, "apache") }

func BenchmarkFig13Nginx(b *testing.B) { benchmarkApp(b, "nginx") }

// BenchmarkTable4RIPE regenerates the Table 4 counts.
func BenchmarkTable4RIPE(b *testing.B) {
	for _, pol := range []string{"mpx", "asan", "sgxbounds"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var prevented int
			for i := 0; i < b.N; i++ {
				s := ripe.RunAll(func() *harden.Ctx {
					env := harden.NewEnv(machine.DefaultConfig())
					p, err := bench.NewPolicy(pol, env, core.AllOptimizations())
					if err != nil {
						b.Fatal(err)
					}
					return harden.NewCtx(p, env.M.NewThread())
				})
				prevented = s.Prevented
			}
			b.ReportMetric(float64(prevented), "prevented/16")
		})
	}
}

// BenchmarkAblationMetadataPlacement isolates the paper's central layout
// choice: SGXBounds' lower bound adjacent to the object versus MPX's
// disjoint bounds-table entry, on a pure pointer-spill/fill loop.
func BenchmarkAblationMetadataPlacement(b *testing.B) {
	run := func(b *testing.B, policy string) {
		var cyclesPerOp float64
		for i := 0; i < b.N; i++ {
			env := harden.NewEnv(machine.DefaultConfig())
			pl, err := bench.NewPolicy(policy, env, core.AllOptimizations())
			if err != nil {
				b.Fatal(err)
			}
			c := harden.NewCtx(pl, env.M.NewThread())
			const slots = 4096
			arr := c.Calloc(slots, 8)
			objs := make([]harden.Ptr, 64)
			for j := range objs {
				objs[j] = c.Malloc(32)
			}
			start := c.T.C.Cycles
			const ops = 100000
			for j := 0; j < ops; j++ {
				slot := int64(j%slots) * 8
				c.StorePtrAt(arr, slot, objs[j%len(objs)])
				_ = c.LoadPtrAt(arr, slot)
			}
			cyclesPerOp = float64(c.T.C.Cycles-start) / ops
		}
		b.ReportMetric(cyclesPerOp, "cycles/spill+fill")
	}
	b.Run("sgxbounds-adjacent-LB", func(b *testing.B) { run(b, "sgxbounds") })
	b.Run("mpx-bounds-table", func(b *testing.B) { run(b, "mpx") })
	b.Run("asan-shadow", func(b *testing.B) { run(b, "asan") })
}

// BenchmarkAblationBoundless measures the §4.2 overlay slow path against
// the in-bounds fast path.
func BenchmarkAblationBoundless(b *testing.B) {
	opts := core.AllOptimizations()
	opts.Boundless = true
	run := func(b *testing.B, oob bool) {
		var cyclesPerOp float64
		for i := 0; i < b.N; i++ {
			env := harden.NewEnv(machine.DefaultConfig())
			c := harden.NewCtx(core.New(env, opts), env.M.NewThread())
			buf := c.Malloc(1024)
			off := int64(0)
			if oob {
				off = 4096 // redirected to the overlay
			}
			start := c.T.C.Cycles
			const ops = 20000
			for j := 0; j < ops; j++ {
				c.StoreAt(buf, off+int64(j%128)*8, 8, uint64(j))
			}
			cyclesPerOp = float64(c.T.C.Cycles-start) / ops
		}
		b.ReportMetric(cyclesPerOp, "cycles/store")
	}
	b.Run("fast-path", func(b *testing.B) { run(b, false) })
	b.Run("overlay-slow-path", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationBaggySlack compares exact object bounds (SGXBounds)
// against power-of-two allocation bounds (Baggy) on memory consumption.
func BenchmarkAblationBaggySlack(b *testing.B) {
	for _, pol := range []string{"sgxbounds", "baggy"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var perObj float64
			for i := 0; i < b.N; i++ {
				env := harden.NewEnv(machine.DefaultConfig())
				pl, err := bench.NewPolicy(pol, env, core.AllOptimizations())
				if err != nil {
					b.Fatal(err)
				}
				c := harden.NewCtx(pl, env.M.NewThread())
				live := env.Heap.LiveBytes()
				const objs = 1000
				for j := 0; j < objs; j++ {
					c.Malloc(uint32(65 + j%100)) // sizes that round badly
				}
				if pol == "baggy" {
					perObj = float64(pl.(interface{ Slack() uint64 }).Slack()) / objs
				} else {
					perObj = float64(env.Heap.LiveBytes()-live) / objs
				}
			}
			b.ReportMetric(perObj, "bytes/object")
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself (host time), so
// regressions in the substrate are visible.
func BenchmarkSimulatorThroughput(b *testing.B) {
	env := harden.NewEnv(machine.DefaultConfig())
	c := harden.NewCtx(harden.NewNative(env), env.M.NewThread())
	buf := c.Malloc(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StoreAt(buf, int64(i%(1<<17))*8, 8, uint64(i))
	}
}

var _ = io.Discard
