package machine

import (
	"testing"

	"sgxbounds/internal/mem"
	"sgxbounds/internal/telemetry"
)

// BenchmarkScalarAccess measures the scalar load/store path over a working
// set that exercises every hierarchy level: a hot line, a warm buffer that
// fits the caches, and a cold stream that spills to DRAM and the EPC.
func BenchmarkScalarAccess(b *testing.B) {
	benchScalarAccess(b, DefaultConfig())
}

// BenchmarkScalarAccessMetrics is BenchmarkScalarAccess on a machine with a
// metrics-only telemetry profile, as every sgxd job and every sgxbench
// -metrics cell runs: the difference between the two is what metrics cost
// per access.
func BenchmarkScalarAccessMetrics(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Tel = telemetry.NewProfile("bench", telemetry.Options{Metrics: true})
	benchScalarAccess(b, cfg)
}

func benchScalarAccess(b *testing.B, cfg Config) {
	m := New(cfg)
	th := m.NewThread()
	const window = 32 * mem.PageSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := 0x1000 + uint32(i*977)%window
		th.Store(addr, 8, uint64(i))
		th.Load(addr, 8)         // same line: fast path
		th.Load(addr^(1<<13), 4) // distinct L1 set: two-line alternation
		th.Load(addr, 4)         // back again
	}
	m.Finish(th)
	b.SetBytes(24)
}

// BenchmarkBulkTouch measures the batched range pipeline with page-crossing
// ranges (64 lines = one simulated page).
func BenchmarkBulkTouch(b *testing.B) {
	m := New(DefaultConfig())
	th := m.NewThread()
	const window = 256 * mem.PageSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := 0x1000 + uint32(i*8191)%window
		th.Touch(addr, mem.PageSize, i&1 == 0)
	}
	b.SetBytes(mem.PageSize)
}
