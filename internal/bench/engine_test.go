package bench

// The engine's one cell path: memoisation, CellHook labels and the poison
// seam, for every cell kind.

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sgxbounds/internal/workloads"
)

// hookLog records CellHook calls; the hook runs on worker goroutines.
type hookLog struct {
	mu     sync.Mutex
	labels []string
}

func (h *hookLog) hook(label string) {
	h.mu.Lock()
	h.labels = append(h.labels, label)
	h.mu.Unlock()
}

func (h *hookLog) calls() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.labels...)
}

// TestTable4Memoised: RIPE cells go through the memo like every other kind,
// so a second Table4 on one engine executes nothing and prints the same
// bytes.
func TestTable4Memoised(t *testing.T) {
	e := NewEngine(2)
	var log hookLog
	e.CellHook = log.hook
	var first, second bytes.Buffer
	e.Table4(&first)
	if _, runs := e.CacheStats(); runs != len(Table4Policies) {
		t.Fatalf("first Table4 ran %d cells, want %d", runs, len(Table4Policies))
	}
	e.Table4(&second)
	hits, runs := e.CacheStats()
	if runs != len(Table4Policies) || hits != len(Table4Policies) {
		t.Errorf("second Table4: runs=%d hits=%d, want %d/%d", runs, hits, len(Table4Policies), len(Table4Policies))
	}
	if n := len(log.calls()); n != len(Table4Policies) {
		t.Errorf("CellHook fired %d times over two Table4s, want %d", n, len(Table4Policies))
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("memoised Table4 output differs:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
	}
}

// TestCellHookLabelsPerKind: the hook fires once per executed cell with the
// cell's canonical label — the names faultline rules match on — and never
// for a memo hit.
func TestCellHookLabelsPerKind(t *testing.T) {
	e := NewEngine(2)
	var log hookLog
	e.CellHook = log.hook
	each := func() {
		e.Run(Spec{Workload: "histogram", Policy: "sgx", Size: workloads.XS})
		e.RunSpeedtest("sgx", 4000)
		e.MeasureApp("nginx", "sgx", 100)
		runCell(e, ripeCell("asan"))
	}
	each()
	want := []string{"histogram/sgx/XS/t1", "fig1:sgx/4000", "fig13:nginx/sgx/r100", "table4:asan"}
	if got := log.calls(); !reflect.DeepEqual(got, want) {
		t.Fatalf("hook labels = %q, want %q", got, want)
	}
	each()
	if got := log.calls(); len(got) != len(want) {
		t.Errorf("memo hits fired the hook: %q", got[len(want):])
	}
	if hits, runs := e.CacheStats(); hits != len(want) || runs != len(want) {
		t.Errorf("hits=%d runs=%d, want %d/%d", hits, runs, len(want), len(want))
	}
}

// TestPoisonedCellHook: a panicking hook (faultline's poison cell) fails
// its batch after the rest of the batch finishes; the poisoned cell stays
// uncached and its duplicate in the batch is reported as skipped rather
// than waited on.
func TestPoisonedCellHook(t *testing.T) {
	e := NewEngine(2)
	poisoned := Spec{Workload: "histogram", Policy: "sgx", Size: workloads.XS}
	healthy := Spec{Workload: "histogram", Policy: "sgxbounds", Size: workloads.XS}
	e.CellHook = func(label string) {
		if label == "histogram/sgx/XS/t1" {
			panic(fmt.Errorf("poisoned %s", label))
		}
	}
	cells := []cell[Result]{e.specCell(poisoned), e.specCell(healthy), e.specCell(poisoned)}
	results := make([]Result, len(cells))
	raised := make(chan any, 1)
	go func() {
		defer func() { raised <- recover() }()
		runCells(e, cells, results)
	}()
	select {
	case p := <-raised:
		if err, ok := p.(error); !ok || err.Error() != "poisoned histogram/sgx/XS/t1" {
			t.Fatalf("re-raised %v, want the hook's panic", p)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned batch did not return")
	}
	if !results[2].Outcome.Canceled {
		t.Errorf("duplicate of the poisoned cell: outcome %v, want canceled", results[2].Outcome)
	}
	if results[1].Outcome.Crashed() || results[1].Cycles == 0 {
		t.Errorf("healthy cell in the poisoned batch: %+v", results[1])
	}
	if hits, runs := e.CacheStats(); hits != 1 || runs != 1 {
		t.Errorf("after poisoned batch: hits=%d runs=%d, want 1/1", hits, runs)
	}
	if e.total != e.done {
		t.Errorf("after poisoned batch: progress total %d, done %d; the poisoned cell must be withdrawn", e.total, e.done)
	}

	// With the poison gone the cell runs: it was never cached.
	e.CellHook = nil
	if r := e.Run(poisoned); r.Outcome.Crashed() {
		t.Fatalf("rerun: %v", r.Outcome)
	}
	e.Run(healthy)
	if hits, runs := e.CacheStats(); hits != 2 || runs != 2 {
		t.Errorf("after rerun: hits=%d runs=%d, want 2/2", hits, runs)
	}
}
