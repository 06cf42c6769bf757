package protocheck

import (
	"sync"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve"
)

// OpKind is one actor operation.
type OpKind int

const (
	// OpSubmit submits Req to the server (a client POST).
	OpSubmit OpKind = iota
	// OpRunNext lets the worker execute one queued job to completion; a
	// no-op when the backlog is empty.
	OpRunNext
	// OpGC runs a store garbage collection.
	OpGC
	// OpRestart restarts the daemon gracefully (journal close, reopen,
	// replay) — the deploy-rollout path, as opposed to a crash.
	OpRestart
)

func (k OpKind) String() string {
	switch k {
	case OpSubmit:
		return "submit"
	case OpRunNext:
		return "run-next"
	case OpGC:
		return "gc"
	case OpRestart:
		return "restart"
	}
	return "?"
}

// Op is one operation in an actor's script.
type Op struct {
	Kind OpKind
	Req  serve.SubmitRequest // OpSubmit only
}

// Actor is one concurrent participant: a named script of operations.
type Actor struct {
	Name string
	Ops  []Op
}

// Program is a scenario: the actors whose operation interleavings the
// explorer enumerates.
type Program struct {
	Name   string
	Actors []Actor
}

// steps returns the total operation count.
func (p Program) steps() int {
	n := 0
	for _, a := range p.Actors {
		n += len(a.Ops)
	}
	return n
}

// The protocheck experiments: registered as Custom bench experiments so
// Job.Validate accepts them, but never executed — the world's Compute stub
// supplies their results. expPoison fails every run with an injected
// fault; expCrashLoop takes the process down on every run.
const (
	expA         = "protocheck-a"
	expB         = "protocheck-b"
	expPoison    = "protocheck-poison"
	expCrashLoop = "protocheck-crash-loop"
)

var registerOnce sync.Once

// registerExperiments installs the protocheck experiment names in the
// bench registry (idempotent; test binaries call Explore many times).
func registerExperiments() {
	registerOnce.Do(func() {
		for _, name := range []string{expA, expB, expPoison, expCrashLoop} {
			bench.Register(bench.Experiment{
				Name: name, Desc: "protocheck model experiment (never executed)",
				Custom: true,
				Run:    nil, // the world's Compute stub replaces the engine
			})
		}
	})
}

// Programs returns the standard scenarios the tests explore. Each is small
// enough that its schedule space dwarfs any test budget, and together they
// cover submission races, warm-path/compute races, store hits, failing and
// process-killing jobs, GC, and both restart flavors.
func Programs() []Program {
	registerExperiments()
	subA := serve.SubmitRequest{Experiment: expA}
	subB := serve.SubmitRequest{Experiment: expB}
	poison := serve.SubmitRequest{Experiment: expPoison}
	crashLoop := serve.SubmitRequest{Experiment: expCrashLoop}
	return []Program{
		{
			// Two clients race duplicate and distinct submissions against
			// one worker; the admin GCs mid-flight.
			Name: "duplicate-submits",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: subA}, {Kind: OpSubmit, Req: subB}}},
				{Name: "c2", Ops: []Op{{Kind: OpSubmit, Req: subA}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpGC}}},
			},
		},
		{
			// Two submissions of a job whose compute always fails each
			// settle failed exactly once, under crashes and a graceful
			// restart, beside a clean job.
			Name: "poison",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: poison}, {Kind: OpSubmit, Req: subA}}},
				{Name: "c2", Ops: []Op{{Kind: OpSubmit, Req: poison}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpRestart}}},
			},
		},
		{
			// A job that takes the process down on every run settles failed
			// within MaxStarts boots and never runs again — a graceful
			// restart is not a start — while clean jobs beside it converge.
			Name: "crash-loop",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: crashLoop}, {Kind: OpSubmit, Req: subA}}},
				{Name: "c2", Ops: []Op{{Kind: OpSubmit, Req: subB}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpRestart}}},
			},
		},
		{
			// A resubmission after its result is stored is a store hit: no
			// job, no journal record, only the entry its ID names. On the
			// default schedule c2's first submission is that hit; crashes,
			// a graceful restart and GC must never take its answer away.
			Name: "warm-hits",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: subA}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}}},
				{Name: "c2", Ops: []Op{{Kind: OpSubmit, Req: subA}, {Kind: OpSubmit, Req: subB}}},
				{Name: "adm", Ops: []Op{{Kind: OpRestart}, {Kind: OpGC}}},
			},
		},
		{
			// A graceful restart lands somewhere between submissions and
			// executions; replayed jobs must converge byte-identically.
			Name: "restart-mid-stream",
			Actors: []Actor{
				{Name: "c1", Ops: []Op{{Kind: OpSubmit, Req: subA}, {Kind: OpSubmit, Req: subB}}},
				{Name: "w", Ops: []Op{{Kind: OpRunNext}, {Kind: OpRunNext}}},
				{Name: "adm", Ops: []Op{{Kind: OpRestart}}},
			},
		},
	}
}
