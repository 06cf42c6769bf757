package machine

import (
	"sync"
	"testing"

	"sgxbounds/internal/mem"
)

// TestReservationAccounting runs every path that reserves or releases
// virtual memory — transient mappings, globals, metadata and thread stacks,
// in the mix eight simulated workers would issue — and checks that the
// books balance exactly afterwards and stay within the budget.
func TestReservationAccounting(t *testing.T) {
	m := New(DefaultConfig())
	base := m.AS.Reserved() // nothing reserved yet
	if base != 0 {
		t.Fatalf("fresh machine reserves %d bytes", base)
	}

	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 100
	}

	var globals, metas, threads uint64
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			// Transient mapping: reserve then fully release.
			if p, err := m.Mmap(3 * mem.PageSize); err == nil {
				m.AS.Store(p, 8, uint64(i)) // commit a page, decommitted below
				m.Munmap(p, 3*mem.PageSize)
			}
			if _, err := m.GlobalAlloc(64); err == nil {
				globals += 64
			}
			if i%32 == 0 {
				if _, err := m.MetaAlloc(mem.PageSize); err == nil {
					metas += mem.PageSize
				}
				if w < 4 && i == 0 {
					th := m.NewThread()
					th.Store(th.StackAlloc(16), 8, 1)
					threads += StackSize
				}
			}
		}
	}

	want := globals + metas + threads
	if got := m.AS.Reserved(); got != want {
		t.Fatalf("reserved = %d after all munmaps, want %d (globals %d + meta %d + stacks %d)",
			got, want, globals, metas, threads)
	}
	if m.AS.Reserved() > m.Cfg.MemoryBudget {
		t.Fatalf("reservation %d exceeds budget %d", m.AS.Reserved(), m.Cfg.MemoryBudget)
	}
}

// TestConcurrentMachinesShareNothing runs independent machines in parallel —
// the engine's cell-level parallelism — and checks each one's counters match
// a sequential run of the same trace bit for bit. Under -race it guards the
// single-owner contract from the other side: a machine takes no host locks,
// so machines must share no host state.
func TestConcurrentMachinesShareNothing(t *testing.T) {
	trace := func(m *Machine) Thread {
		th := m.NewThread()
		for i := uint32(0); i < 2000; i++ {
			addr := 0x1000 + (i*977)%(64*mem.PageSize)
			th.Store(addr, 4, uint64(i))
			th.Load(addr^0x40, 8)
			if i%17 == 0 {
				th.Touch(addr, 4096, true)
			}
		}
		return *th
	}
	var sequential Thread
	func() { sequential = trace(New(DefaultConfig())) }()

	const n = 8
	results := make([]Thread, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = trace(New(DefaultConfig()))
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i].C != sequential.C {
			t.Fatalf("machine %d diverged from sequential run:\n parallel:   %+v\n sequential: %+v",
				i, results[i].C, sequential.C)
		}
	}
}
