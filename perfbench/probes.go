package main

import (
	"io"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/cache"
	"sgxbounds/internal/core"
	"sgxbounds/internal/enclave"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/mem"
	"sgxbounds/internal/telemetry"
)

// sink keeps probed loads observable so the compiler cannot drop them.
var sink uint64

// probeReps is how many times each micro-probe loop runs; the probe
// reports the median.
const probeReps = 5

// probe returns the median host ns per op of fn(n) over probeReps runs.
func probe(n int, fn func(n int)) float64 {
	xs := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		fn(n)
		xs = append(xs, float64(time.Since(t))/float64(n))
	}
	return median(xs)
}

// threadLoadNs times machine.Thread.Load walking one load per cache line
// through a footprint: 16 KiB stays in L1, 1 MiB misses the private levels
// and hits the LLC, 16 MiB overflows the 6 MiB EPC and pages.
func threadLoadNs(footprint uint32) float64 {
	m := machine.New(machine.DefaultConfig())
	t := m.NewThread()
	base := harden.MustAlloc(m.Mmap(footprint))
	walk := func(n int) {
		off := uint32(0)
		for i := 0; i < n; i++ {
			sink += t.Load(base+off, 8)
			if off += cache.LineSize; off >= footprint {
				off = 0
			}
		}
	}
	walk(int(footprint / cache.LineSize)) // commit and warm
	return probe(200_000, walk)
}

// threadTouchNsPerLine times machine.Thread.Touch over a 64 KiB range
// (L2-resident), per line.
func threadTouchNsPerLine() float64 {
	m := machine.New(machine.DefaultConfig())
	t := m.NewThread()
	const span = 64 << 10
	base := harden.MustAlloc(m.Mmap(span))
	t.Touch(base, span, true)
	const lines = span / cache.LineSize
	return probe(300, func(n int) {
		for i := 0; i < n; i++ {
			t.Touch(base, span, false)
		}
	}) / lines
}

// cacheAccessLineNs times cache.Cache.AccessLine: hits on an 8-way L1-sized
// cache cycling 256 lines, misses on a 16-way LLC-sized cache streaming
// 4M distinct lines.
func cacheAccessLineNs() (hit, miss float64) {
	l1 := cache.New(cache.Config{Size: 32 << 10, Ways: 8})
	hit = probe(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			l1.AccessLine(uint32(i & 255))
		}
	})
	llc := cache.New(cache.Config{Size: 2 << 20, Ways: 16})
	line := uint32(0)
	miss = probe(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			llc.AccessLine(line)
			line = (line + 1) & (1<<22 - 1)
		}
	})
	return hit, miss
}

// memLoadNs times mem.AddressSpace.Load over 64 KiB of committed pages.
func memLoadNs() float64 {
	as := mem.New()
	const span = 64 << 10
	for a := uint32(0); a < span; a += 8 {
		as.Store(0x10000000+a, 8, uint64(a))
	}
	return probe(1_000_000, func(n int) {
		a := uint32(0)
		for i := 0; i < n; i++ {
			sink += as.Load(0x10000000+a, 8)
			a = (a + 8) & (span - 1)
		}
	})
}

// epcTouchNs times enclave.EPC.Touch on resident pages (256 of the
// default 1536) and on a sequential sweep over twice the capacity, where
// every touch pages.
func epcTouchNs() (resident, fault float64) {
	e := enclave.New(enclave.Config{Enabled: true})
	const page = mem.PageSize
	for p := uint32(0); p < 256; p++ {
		e.Touch(p * page)
	}
	resident = probe(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			e.Touch(uint32(i&255) * page)
		}
	})
	f := enclave.New(enclave.Config{Enabled: true})
	pages := uint32(2 * f.Capacity())
	next := uint32(0)
	sweep := func(n int) {
		for i := 0; i < n; i++ {
			f.Touch(next * page)
			if next++; next == pages {
				next = 0
			}
		}
	}
	sweep(int(pages)) // cold faults first, so the probe sees warm paging
	fault = probe(200_000, sweep)
	return resident, fault
}

// loadAtNs times harden.Ctx.LoadAt under one policy over a 16 KiB heap
// object (cache-resident, so the difference from "sgx" is the check).
func loadAtNs(policy string) float64 {
	env := harden.NewEnv(machine.DefaultConfig())
	pol, err := bench.NewPolicy(policy, env, core.AllOptimizations())
	if err != nil {
		panic(err) // the four policy names are fixed above
	}
	c := harden.NewCtx(pol, env.M.NewThread())
	const size = 16 << 10
	p := c.Malloc(size)
	walk := func(n int) {
		off := int64(0)
		for i := 0; i < n; i++ {
			sink += c.LoadAt(p, off, 8)
			off = (off + 8) & (size - 1)
		}
	}
	walk(size / 8)
	return probe(500_000, walk)
}

// telemetryCells is the fixed cell list the telemetry probe runs.
var telemetryCells = bench.Job{
	Experiment: "grid", Size: "XS",
	Workloads: []string{"kmeans", "mcf", "ptrchase"},
	Policies:  []string{"sgx", "sgxbounds", "asan"},
}

// telemetryOverhead runs telemetryCells on fresh single-worker engines
// with and without a metrics-only collector, alternating, and returns the
// ratio of the median times (with / without).
func telemetryOverhead() float64 {
	timeOnce := func(metrics bool) float64 {
		eng := bench.NewEngine(1)
		if metrics {
			eng.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true})
		}
		t := time.Now()
		if err := bench.RunJob(eng, telemetryCells, io.Discard, nil); err != nil {
			panic(err) // a fixed, valid job
		}
		return time.Since(t).Seconds()
	}
	var on, off []float64
	for i := 0; i < 3; i++ {
		off = append(off, timeOnce(false))
		on = append(on, timeOnce(true))
	}
	return ratio(median(on), median(off))
}

// runProbes fills the simulator layers' micro-probe metrics.
func runProbes(pl map[string]metric) {
	pl["machine.load_ns.l1"] = metric{threadLoadNs(16 << 10), "ns"}
	pl["machine.load_ns.llc"] = metric{threadLoadNs(1 << 20), "ns"}
	pl["machine.load_ns.epc"] = metric{threadLoadNs(16 << 20), "ns"}
	pl["machine.touch_ns_per_line"] = metric{threadTouchNsPerLine(), "ns"}
	hit, miss := cacheAccessLineNs()
	pl["cache.access_line_ns.hit"] = metric{hit, "ns"}
	pl["cache.access_line_ns.miss"] = metric{miss, "ns"}
	pl["mem.load_ns"] = metric{memLoadNs(), "ns"}
	res, fault := epcTouchNs()
	pl["enclave.touch_ns.resident"] = metric{res, "ns"}
	pl["enclave.touch_ns.fault"] = metric{fault, "ns"}
	for _, pol := range bench.PolicyNames {
		pl["harden.load_at_ns."+pol] = metric{loadAtNs(pol), "ns"}
	}
	pl["telemetry.overhead_ratio"] = metric{telemetryOverhead(), "ratio"}
}
