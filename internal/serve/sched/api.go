// Package sched is sgxd's scheduler layer: the bounded job queue, the
// durable job journal, per-job deadlines, bounded retries with backoff,
// and poison-job quarantine — everything between "a job was admitted" and
// "a result is durable", behind a transport-agnostic interface.
//
// The package deliberately has no net/http dependency (enforced by a
// test): the HTTP front door lives in internal/serve, and a future cluster
// placement policy can drive a Scheduler over any transport. Results are
// read and written through the ResultStore interface, so the scheduler is
// equally happy over the raw content-addressed disk store or the LRU
// result tier layered above it (internal/serve/resultier).
//
// The serving invariant is byte-identity: a result fetched through sgxd is
// the same bytes as the same figure printed by `sgxbench -experiment ...`,
// whether it was just computed or replayed from the store. Jobs are
// identified by bench.Job.Digest — canonical spec plus simulator version —
// so equivalent requests share one store entry and a simulator change can
// never serve stale tables.
package sched

import (
	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/store"
)

// SubmitRequest is the body of POST /api/v1/jobs: an experiment name plus
// cell-grid parameters. The first six fields form the job's identity
// (bench.Job); the rest shape how this run executes without affecting what
// it produces.
type SubmitRequest struct {
	Experiment string   `json:"experiment"`
	Threads    int      `json:"threads,omitempty"`
	Requests   int      `json:"requests,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	Size       string   `json:"size,omitempty"`
	// EPCBytes overrides the simulated EPC capacity for EPC-aware
	// experiments (0 = the server's default). Part of the job's identity:
	// a sweep against a different EPC is a different result.
	EPCBytes uint64 `json:"epc_bytes,omitempty"`

	// Parallel overrides the engine worker count for this job (0 = server
	// default). Deliberately not part of the job's identity: engine results
	// are byte-identical for every worker count.
	Parallel int `json:"parallel,omitempty"`
	// DeadlineMS bounds each attempt of this job in wall-clock
	// milliseconds (0 = the server's default deadline). An attempt that
	// overruns is aborted at its next memory-hierarchy probe and retried;
	// a job that times out repeatedly is quarantined. Like Parallel, not
	// part of the job's identity.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace additionally records structured events in the job's telemetry
	// profile (heavier; metrics are always collected).
	Trace bool `json:"trace,omitempty"`
	// Force recomputes even when the store already holds the result.
	Force bool `json:"force,omitempty"`
}

// Job extracts the identity portion of the request.
func (r SubmitRequest) Job() bench.Job {
	return bench.Job{
		Experiment: r.Experiment,
		Threads:    r.Threads,
		Requests:   r.Requests,
		Workloads:  r.Workloads,
		Policies:   r.Policies,
		Size:       r.Size,
		EPCBytes:   r.EPCBytes,
	}
}

// StoreKey returns the request's content address — the one place a
// SubmitRequest turns into a store key. Submission, journal compaction,
// boot replay, and protocheck's result oracle all go through it, so the
// key computation cannot drift between the layers that must agree on it.
func (r SubmitRequest) StoreKey() string { return r.Job().Digest() }

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
	// StateQuarantined parks a poison job: one that panicked or timed out
	// on every allowed attempt. Parked jobs are never retried implicitly;
	// they persist across restarts (via the journal) with their fault
	// context, and are released explicitly through the quarantine API
	// (`sgxctl requeue`), which resubmits the request as a fresh job.
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final (quarantined is final for
// the job record; release happens by resubmission, not resurrection).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// CellStats echoes the engine's cache statistics for one job: how many
// cells were served from the in-engine memo and how many actually
// simulated. A job replayed from the persistent store ran zero cells.
type CellStats struct {
	Hits int `json:"hits"`
	Runs int `json:"runs"`
}

// JobStatus is the wire form of one job's state.
type JobStatus struct {
	ID        string    `json:"id"`
	Key       string    `json:"key"` // store digest (content address)
	State     JobState  `json:"state"`
	Job       bench.Job `json:"job"` // canonical form
	FromStore bool      `json:"from_store,omitempty"`
	Error     string    `json:"error,omitempty"`
	ElapsedMS int64     `json:"elapsed_ms,omitempty"`
	Cells     CellStats `json:"cells"`
	// Attempts counts execution attempts (>1 means retries happened); the
	// fault context of a quarantined job is this plus Error.
	Attempts int `json:"attempts,omitempty"`
	// RequeuedAs names the fresh job a quarantined job was released as.
	RequeuedAs   string `json:"requeued_as,omitempty"`
	Replayed     bool   `json:"replayed,omitempty"` // resumed from the journal at boot
	CreatedUnix  int64  `json:"created_unix"`
	StartedUnix  int64  `json:"started_unix,omitempty"`
	FinishedUnix int64  `json:"finished_unix,omitempty"`
	// Node names the cluster node executing this job (stamped by the HTTP
	// layer; empty outside cluster mode).
	Node string `json:"node,omitempty"`
	// RecoveredFrom names the dead cluster node whose journaled job this
	// one re-enqueues; each adoption happens exactly once.
	RecoveredFrom string `json:"recovered_from,omitempty"`
}

// PendingJob pairs a job's ID with its resubmittable request — the unit
// the cluster layer moves between nodes: heartbeats piggyback each node's
// unsettled set so survivors can adopt a dead node's work, and a leaving
// node hands its queued jobs to their new owners.
type PendingJob struct {
	ID  string        `json:"id"`
	Req SubmitRequest `json:"req"`
}

// ResultBundle is the store body format: the experiment's table text
// verbatim, plus any CSV exports keyed by grid name. Output is the
// byte-identity carrier — it is exactly what sgxbench would have printed.
type ResultBundle struct {
	Output string            `json:"output"`
	CSV    map[string]string `json:"csv,omitempty"`
}

// ResultStore is the scheduler's view of the result tier: content-addressed
// get/put plus deletion of entries that fail decoding above the store's own
// verification. The raw disk store (internal/serve/store) satisfies it, and
// so does the in-memory LRU tier layered over it
// (internal/serve/resultier) — the scheduler cannot tell the difference,
// which is the point.
type ResultStore interface {
	Get(key, version string) (body []byte, meta store.Meta, ok bool)
	Put(key string, body []byte, meta store.Meta) error
	Delete(key string) error
}
