package protocheck

// The cluster's shared-truth configuration, modeled in-process: two
// schedulers (two worlds, two journals) sit over ONE content-addressed
// store, and both are handed the same digest. Dead-node recovery and a
// leaving node's queue handoff both produce exactly this shape — the same
// spec queued on two nodes whose stores converge — so the oracle here is
// the cluster's core promise: settled-once per scheduler (nobody computes
// twice, and a scheduler that sees the other's settled result serves it
// from the store) and byte-identity (every served result is the canonical
// bytes, and the store holds exactly one committed copy).
//
// The explorer machinery is single-world, so this suite enumerates the
// interleavings itself: every merge of the two nodes' scripts
// (submit, run, run) runs as its own execution over fresh directories.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve"
)

// sharedScript is one node's moves: submit the contested digest, then two
// worker steps (the second covers the probe-again-after-the-other-settled
// path when the first step lost the race).
const sharedSteps = 3

// merges enumerates every interleaving of a A-steps and b B-steps as
// boolean sequences (false = A moves, true = B moves). C(6,3) = 20 for
// the shared-store script.
func merges(a, b int) [][]bool {
	if a == 0 && b == 0 {
		return [][]bool{{}}
	}
	var out [][]bool
	if a > 0 {
		for _, rest := range merges(a-1, b) {
			out = append(out, append([]bool{false}, rest...))
		}
	}
	if b > 0 {
		for _, rest := range merges(a, b-1) {
			out = append(out, append([]bool{true}, rest...))
		}
	}
	return out
}

// passiveSched is a crash-free decision tape: yields never fire (armed
// stays false), so the interleaving under test is exactly the driver's
// merge order and nothing else.
func passiveSched() *sched {
	return newSched(nil, Options{MaxCrashes: 1, MaxDecisions: 1 << 16}.withDefaults(),
		map[uint64]struct{}{})
}

func TestSharedStoreSameDigestRaces(t *testing.T) {
	registerExperiments()
	req := serve.SubmitRequest{Experiment: expA}
	orders := merges(sharedSteps, sharedSteps)
	if len(orders) != 20 {
		t.Fatalf("enumerated %d interleavings, want 20", len(orders))
	}
	for i, order := range orders {
		name := make([]byte, len(order))
		for j, b := range order {
			name[j] = 'A'
			if b {
				name[j] = 'B'
			}
		}
		t.Run(fmt.Sprintf("%02d-%s", i, name), func(t *testing.T) {
			runSharedExecution(t, req, order)
		})
	}
}

func runSharedExecution(t *testing.T, req serve.SubmitRequest, order []bool) {
	t.Helper()
	base := t.TempDir()
	sharedStore := filepath.Join(base, "store")

	computes := [2]int{}
	worlds := [2]*world{}
	for i := range worlds {
		i := i
		counting := func(ctx context.Context, spec bench.Job) (*serve.ResultBundle, error) {
			computes[i]++
			return stubCompute(ctx, spec)
		}
		w, err := newWorldAt(filepath.Join(base, string(rune('a'+i))), sharedStore,
			passiveSched(), false, counting)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
		defer w.srv.Abort()
	}

	// Drive the scripted merge, then drain both nodes.
	var ids [2]string
	steps := [2]int{}
	execStep := func(i int) {
		w := worlds[i]
		if steps[i] == 0 {
			j, err := w.srv.Submit(req)
			if err != nil {
				t.Fatalf("node %d submit: %v", i, err)
			}
			ids[i] = j.Status().ID
		} else {
			w.srv.RunNext()
		}
		steps[i]++
	}
	for _, b := range order {
		i := 0
		if b {
			i = 1
		}
		execStep(i)
	}
	// The node that computed tracks its one job. A node whose submission
	// came back as a store hit tracks none (the hit is a view of the
	// store, not a job); one whose job queued first tracks that job.
	for i, w := range worlds {
		for w.srv.RunNext() {
		}
		if n := len(w.srv.List()); n > 1 || computes[i] > 0 && n != 1 {
			t.Fatalf("node %d computed %d times and tracks %d jobs", i, computes[i], n)
		}
	}

	want := canonicalOutput(bench.Job{Experiment: req.Experiment})

	// Byte-identity: both submitted IDs resolve to the canonical bytes.
	for i, w := range worlds {
		st, ok := w.srv.Status(ids[i])
		if !ok {
			t.Fatalf("node %d lost job %s", i, ids[i])
		}
		if st.State != serve.StateDone {
			t.Fatalf("node %d job %s ended %s, want done", i, ids[i], st.State)
		}
		bundle, ok := w.srv.Result(ids[i])
		if !ok {
			t.Fatalf("node %d job %s done with no result", i, ids[i])
		}
		if bundle.Output != want {
			t.Errorf("node %d served %q, want %q", i, bundle.Output, want)
		}
		// Settled-once per scheduler: no node runs the digest twice.
		if computes[i] > 1 {
			t.Errorf("node %d computed %d times, want at most 1", i, computes[i])
		}
		// A node that never computed must have read the other's settled
		// result through the shared store.
		if computes[i] == 0 && !st.FromStore {
			t.Errorf("node %d computed nothing yet FromStore=false", i)
		}
	}
	if total := computes[0] + computes[1]; total < 1 {
		t.Error("neither node computed the digest")
	}

	// The shared store converged to exactly one committed copy, and that
	// copy passes the raw integrity scan (body size + SHA-256 match meta).
	o := newOracle("shared-store")
	o.checkStoreIntegrity(sharedStore)
	if o.violation != nil {
		t.Fatalf("store integrity: %s", o.violation.Detail)
	}
	metas := 0
	filepath.WalkDir(sharedStore, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".json") &&
			!strings.HasPrefix(d.Name(), ".tmp-") {
			metas++
		}
		return nil
	})
	if metas != 1 {
		t.Errorf("shared store holds %d committed results, want exactly 1", metas)
	}

	// Settled-once across restart: both journals replay to a fixpoint, and
	// a rebooted node neither resurrects the settled job nor recomputes —
	// a fresh same-digest submission drains straight from the store.
	for i, w := range worlds {
		w.srv.Abort()
		o.checkReplayIdempotence(w.journal)
		if o.violation != nil {
			t.Fatalf("node %d journal: %s", i, o.violation.Detail)
		}
		if err := w.reboot(); err != nil {
			t.Fatalf("node %d reboot: %v", i, err)
		}
		for _, st := range w.srv.List() {
			if !st.State.Terminal() {
				t.Errorf("node %d resurrected job %s as %s after restart", i, st.ID, st.State)
			}
		}
		before := computes[i]
		j, err := w.srv.Submit(req)
		if err != nil {
			t.Fatalf("node %d resubmit: %v", i, err)
		}
		for w.srv.RunNext() {
		}
		st := j.Status()
		if st.State != serve.StateDone || !st.FromStore {
			t.Errorf("node %d resubmission ended %s FromStore=%t, want done from store",
				i, st.State, st.FromStore)
		}
		if computes[i] != before {
			t.Errorf("node %d recomputed a settled digest after restart", i)
		}
	}
}
