package protocheck

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/protohook"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/store"
)

// canonicalOutput is the one true result for a protocheck job: the oracle
// recomputes it from any observed job spec, so a served result that is not
// byte-identical to it is a violation, not a diff to eyeball.
func canonicalOutput(spec bench.Job) string {
	return "protocheck:" + spec.Experiment + ":" + spec.Digest() + "\n"
}

// stubCompute replaces the bench engine: instant, deterministic, and
// poisonable. The poison experiment fails every run with an injected-fault
// error, which settles its job failed.
func stubCompute(ctx context.Context, spec bench.Job) (*serve.ResultBundle, error) {
	if spec.Experiment == expPoison {
		return nil, &faultline.Fault{Op: "protocheck.compute", Detail: spec.Experiment, Kind: "error"}
	}
	return &serve.ResultBundle{Output: canonicalOutput(spec)}, nil
}

// world is one execution's universe: a directory holding the store and
// journal, and the current serve.Server incarnation over them. A simulated
// crash abandons the incarnation; reboot builds the next one over the same
// directory, exactly as a restarted sgxd would.
type world struct {
	dir        string
	storeDir   string
	journal    string
	sched      *sched
	compute    func(context.Context, bench.Job) (*serve.ResultBundle, error)
	srv        *serve.Server
	st         *store.Store
	breakOrder bool
	restarted  bool // set by a graceful OpRestart, consumed by the driver
	// crashLoopRuns counts runs of the crash-loop experiment, each of which
	// took the process down — across every boot of this execution.
	crashLoopRuns int
}

func newWorld(dir string, s *sched, breakOrder bool) (*world, error) {
	return newWorldAt(dir, filepath.Join(dir, "store"), s, breakOrder, nil)
}

// newWorldAt separates the store root from the world directory so two
// worlds — two schedulers, two journals — can sit over ONE shared
// content-addressed store: the cluster's shared-truth configuration,
// modeled in-process. compute, when non-nil, replaces stubCompute (the
// shared-store checks count executions per scheduler).
func newWorldAt(dir, storeDir string, s *sched, breakOrder bool,
	compute func(context.Context, bench.Job) (*serve.ResultBundle, error)) (*world, error) {
	if compute == nil {
		compute = stubCompute
	}
	w := &world{
		dir:        dir,
		storeDir:   storeDir,
		journal:    filepath.Join(dir, "journal.jsonl"),
		sched:      s,
		compute:    compute,
		breakOrder: breakOrder,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Initial boot runs with crash decisions disarmed (s.armed false): the
	// empty-state boot has nothing protocol-interesting to lose, and
	// skipping its yields keeps tapes short.
	if err := w.reboot(); err != nil {
		return nil, err
	}
	return w, nil
}

// reboot opens a fresh store handle and server over the world directory —
// a cold process start. The serve.Config is the protocheck drive: manual
// queue and stub compute.
func (w *world) reboot() error {
	st, err := store.Open(w.storeDir)
	if err != nil {
		return err
	}
	if w.breakOrder {
		st.BreakCommitOrderForTest(true)
	}
	srv, err := serve.New(serve.Config{
		Store:   st,
		Manual:  true,
		Backlog: 32,
		Journal: w.journal,
		Hooks:   w.sched,
		Compute: w.run,
	})
	if err != nil {
		return err
	}
	w.srv = srv
	w.st = st
	return nil
}

// run is the world's executor. The crash-loop experiment takes the process
// down on every run, as a job that hits a Go fatal error or the OOM killer
// would; everything else goes to the world's compute.
func (w *world) run(ctx context.Context, spec bench.Job) (*serve.ResultBundle, error) {
	if spec.Experiment == expCrashLoop {
		w.crashLoopRuns++
		panic(&protohook.Crash{Site: "compute." + expCrashLoop})
	}
	return w.compute(ctx, spec)
}

// step runs f, converting a simulated crash (a *protohook.Crash panic from
// a yield point) into a boolean. Everything f wrote to disk before the
// crash is the crash image; the in-memory server is dead and must be
// rebooted before the next step.
func (w *world) step(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if !protohook.IsCrash(r) {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// exec performs one program operation against the live server, reporting
// acks to the oracle. It runs inside step; a crash unwinds out of it before
// any oracle bookkeeping for the op.
func (w *world) exec(op Op, o *oracle) {
	switch op.Kind {
	case OpSubmit:
		j, err := w.srv.Submit(op.Req)
		if err != nil {
			o.fail("submit-rejected", fmt.Sprintf("submit %s: %v", op.Req.Experiment, err))
			return
		}
		o.ack(j.Status())
	case OpRunNext:
		w.srv.RunNext()
	case OpGC:
		if _, err := w.st.GC(bench.SimVersion); err != nil {
			o.fail("gc-failed", err.Error())
		}
	case OpRestart:
		o.noteJournalImage(w.journal)
		w.srv.Abort()
		if err := w.reboot(); err != nil {
			o.fail("boot-failed", err.Error())
			return
		}
		w.restarted = true
	}
}

// recoverCrash brings a crashed world back: close the dead incarnation's
// journal handle, check the crash image (store integrity, journal replay
// idempotence), then reboot — which may itself crash at a recovery yield,
// in which case the loop goes around with one less crash in the budget.
func (w *world) recoverCrash(o *oracle) {
	o.checkCrashLoop(w)
	first := true
	for {
		w.srv.Abort()
		// Every crash image amends the restart contract (see
		// noteJournalImage). The idempotence check wants the pristine
		// first one; a second crash during recovery sees an
		// already-compacted journal, already checked.
		o.noteJournalImage(w.journal)
		if first {
			o.checkReplayIdempotence(w.journal)
			first = false
		}
		o.checkStoreIntegrity(w.storeRoot())
		if o.violation != nil {
			return
		}
		var rerr error
		crashed := w.step(func() { rerr = w.reboot() })
		if crashed {
			continue
		}
		if rerr != nil {
			o.fail("boot-failed", rerr.Error())
			return
		}
		return
	}
}

// drain runs the worker until the backlog is empty, recovering from any
// crashes along the way (bounded by the crash budget). After drain, every
// job the journal knows about must be terminal.
func (w *world) drain(o *oracle) {
	for {
		var progressed bool
		crashed := w.step(func() { progressed = w.srv.RunNext() })
		if crashed {
			w.recoverCrash(o)
			o.afterRestart(w)
			if o.violation != nil {
				return
			}
			continue
		}
		o.observe(w)
		if o.violation != nil || !progressed {
			return
		}
	}
}

func (w *world) storeRoot() string { return w.storeDir }

// stateHash digests the protocol-relevant state before a scheduling
// decision: every job's lifecycle position plus each actor's remaining
// script and the crash budget — never wall-clock fields, which differ
// between otherwise identical executions. Two schedule prefixes reaching
// the same hash have (modulo 64-bit collisions) the same future, so the
// explorer walks only one of them.
func (w *world) stateHash(progress []int, crashesUsed int) uint64 {
	h := fnv.New64a()
	for _, p := range progress {
		fmt.Fprintf(h, "a%d;", p)
	}
	fmt.Fprintf(h, "c%d;r%d;", crashesUsed, w.crashLoopRuns)
	sts := w.srv.List()
	sort.Slice(sts, func(i, j int) bool { return sts[i].ID < sts[j].ID })
	for _, st := range sts {
		fmt.Fprintf(h, "%s|%s|%s|%d|%t|%t|%s;",
			st.ID, st.State, st.Key, st.Attempts, st.Replayed, st.FromStore, st.Error)
	}
	return h.Sum64()
}
