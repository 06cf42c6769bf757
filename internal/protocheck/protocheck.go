// Package protocheck is a model-checker-style deterministic scheduler for
// the sgxd protocols: it drives the real internal/serve queue, store and
// journal state machines through enumerated operation interleavings and
// crash points, and asserts the service's durability invariants over every
// execution it explores.
//
// # Execution model
//
// A Program is a small concurrent scenario: named actors (clients, a
// worker, an admin), each with a fixed list of operations (submit, run one
// job, gc, restart). The explorer runs the program step-atomically:
// at each point it chooses which actor's next operation executes, and that
// operation runs to completion on the explorer's goroutine. Concurrency is
// therefore modeled as the interleaving of whole operations — there is no
// preemption inside an operation, which keeps the real locks in the serve
// packages out of deadlock's reach.
//
// Crashes are finer-grained. The serve packages are threaded with
// protohook yield points at every protocol-relevant instant (before a
// journal record is durable, between the store's body and meta commits,
// before a job's terminal transition, ...). At each yield the scheduler
// may choose to kill the process: it panics with a *protohook.Crash, the
// operation unwinds (releasing its locks), and whatever had reached the
// disk at that instant is the crash image. The world then restarts — a
// fresh serve.New over the same directory — replaying the journal exactly
// as a rebooted sgxd would, and the oracle checks that nothing acked was
// lost, nothing settled twice, and nothing partial is served. Crashes are
// bounded per execution (Options.MaxCrashes), and a second crash may land
// during the first recovery, so crash-during-replay and crash-during-
// compaction interleavings are in scope.
//
// Because simulated crashes only ever strike at yield points — never
// between a write() and the platform's page cache — fsync adds nothing to
// the model, and the scheduler's NoSync hook elides it. That is what makes
// exploring tens of thousands of executions affordable.
//
// # Exploration
//
// Every scheduling and crash decision is recorded on a tape. The explorer
// enumerates tapes depth-first in lexicographic order: run with a prefix,
// extend with default choices (first enabled actor; do not crash),
// backtrack by incrementing the deepest decision that still has an untried
// alternative. A tape replays exactly — the serve packages have no
// control-flow nondeterminism on these paths — so any violation's tape is
// its reproducer.
//
// Revisit pruning is heuristic: before each scheduling decision the driver
// hashes the protocol-relevant state (job states, keys, attempts, remaining
// operations, crash budget — never wall-clock timestamps) and, if that
// state was reached before by an already-enumerated prefix, explores only
// the default choice from it. A 64-bit hash collision can therefore mask
// an interleaving; the budget buys breadth, not proof.
//
// Counterexamples are minimized by greedily resetting decisions to their
// defaults and re-running, keeping each change only if the violation
// persists — the reported tape is locally minimal and replays via Replay.
package protocheck

import (
	"fmt"
	"strings"
)

// DecisionKind separates the two choice points on the tape.
type DecisionKind string

const (
	// KindSched chooses which enabled actor executes its next operation.
	KindSched DecisionKind = "sched"
	// KindCrash chooses continue (0) or die (1) at one yield point.
	KindCrash DecisionKind = "crash"
)

// Decision is one recorded choice: what was decided, where, among how many
// alternatives. A tape of decisions replays an execution exactly.
type Decision struct {
	Kind   DecisionKind `json:"kind"`
	Site   string       `json:"site,omitempty"`   // yield site (crash) or acting actor (sched)
	Detail string       `json:"detail,omitempty"` // yield detail (job ID, store key, ...)
	Chosen int          `json:"chosen"`
	Alts   int          `json:"alts"`
}

// Violation is one invariant failure, with everything needed to replay it.
type Violation struct {
	Program   string     `json:"program"`
	Invariant string     `json:"invariant"`
	Detail    string     `json:"detail"`
	Tape      []Decision `json:"tape"`
	// Trace is the human-readable step log of the (minimized) failing
	// execution.
	Trace []string `json:"trace"`
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocheck: %s violated %q: %s\n", v.Program, v.Invariant, v.Detail)
	fmt.Fprintf(&b, "  tape (%d decisions, %d non-default):\n", len(v.Tape), nonDefault(v.Tape))
	for i, d := range v.Tape {
		if d.Chosen != 0 {
			fmt.Fprintf(&b, "    [%d] %s %s %s -> choice %d of %d\n", i, d.Kind, d.Site, d.Detail, d.Chosen, d.Alts)
		}
	}
	for _, line := range v.Trace {
		fmt.Fprintf(&b, "  | %s\n", line)
	}
	return b.String()
}

func nonDefault(tape []Decision) int {
	n := 0
	for _, d := range tape {
		if d.Chosen != 0 {
			n++
		}
	}
	return n
}

// Options bounds an exploration.
type Options struct {
	// Budget caps the number of executions (distinct tapes) explored.
	Budget int
	// MaxCrashes bounds simulated crashes per execution (default 2: one in
	// the main run, one more during its recovery).
	MaxCrashes int
	// MaxDecisions caps the tape length of a single execution — a backstop
	// against a runaway schedule, far above any real program's depth.
	MaxDecisions int
	// BreakCommitOrder seeds the store's meta-before-body regression, for
	// proving the explorer catches it.
	BreakCommitOrder bool
	// Walk switches from exhaustive DFS to a seeded random walk: decision
	// n is Hash64(WalkSeed, n) mod alts. Cheaper per unit of depth
	// diversity; used by the deep CI tier alongside DFS.
	Walk     bool
	WalkSeed uint64
	// Log, when non-nil, receives one line per thousand executions.
	Log func(string)
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 1000
	}
	if o.MaxCrashes <= 0 {
		o.MaxCrashes = 2
	}
	if o.MaxDecisions <= 0 {
		o.MaxDecisions = 4096
	}
	return o
}

// Result summarises one exploration.
type Result struct {
	Program    string
	Executions int  // distinct interleavings actually run
	Pruned     int  // scheduling decisions clamped by the state-hash cache
	Crashes    int  // simulated crashes across all executions
	Exhausted  bool // the whole (pruned) space was enumerated within budget
	Violation  *Violation
}
