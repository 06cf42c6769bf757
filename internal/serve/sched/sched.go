package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/protohook"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// Config parameterises a Scheduler.
type Config struct {
	// Store is the result tier the scheduler reads warm results from and
	// persists computed results to — the raw disk store or the LRU tier
	// layered over it. Required.
	Store    ResultStore
	Workers  int // concurrent jobs (default 1: jobs already parallelise internally)
	Backlog  int // queued-job capacity (default 64)
	Parallel int // default engine workers per job (0 = GOMAXPROCS)
	Log      *log.Logger

	// Metrics receives the scheduler's counters and histograms; the daemon
	// shares one registry across its layers so /metrics is a single
	// exposition. Nil allocates a private registry.
	Metrics *telemetry.Registry

	// Journal, when non-empty, is the path of the durable job journal:
	// every job that queues is fsync'd there before the client sees a
	// 201, and on boot the journal is replayed — queued or interrupted
	// jobs resume, and one that has started MaxStarts times is failed. A
	// store hit is not a job and writes nothing (see Submit). Empty
	// disables durability (in-process tests, throwaway daemons).
	Journal string
	// Faults, when non-nil, is the armed fault injector; the scheduler
	// fires "engine.cell" / "crash.*" sites itself (the store carries its
	// own sites, armed by the daemon).
	Faults *faultline.Injector
	// DefaultDeadline bounds the run of jobs that do not carry their own
	// deadline_ms (0 = unbounded).
	DefaultDeadline time.Duration

	// Hooks, when non-nil, arms protocheck's yield points through the
	// queue, store and journal (see internal/protohook). Production
	// daemons leave it nil: every site is then one predictable branch.
	Hooks protohook.Hooks
	// Compute, when non-nil, replaces the bench engine as the job
	// executor — protocheck and deterministic tests supply a stub so
	// protocol exploration never pays for real simulation. Its result is
	// persisted and served exactly like an engine result, and any error or
	// panic fails the job. Production daemons leave it nil.
	Compute func(ctx context.Context, spec bench.Job) (*ResultBundle, error)
	// Manual disables the worker pool: jobs execute only when the owner
	// calls RunNext, on the caller's goroutine. This is the deterministic
	// drive protocheck schedules; production daemons leave it false.
	Manual bool
	// IDPrefix namespaces minted job IDs ("<prefix>j000001") and store
	// hits' IDs ("<prefix>k<store key>"). Cluster nodes pass "<nodeID>-"
	// so IDs are globally unique across the membership and name the node
	// that holds the job: any node resolves a fetched ID locally or by
	// proxying to the node its prefix names. Empty outside cluster mode
	// (the historical format).
	IDPrefix string
}

// Scheduler owns the job lifecycle: the bounded queue and its workers, the
// durable journal, deadlines, and the start bound. It is deliberately
// transport-agnostic — the HTTP front door (internal/serve) and the cluster
// layer drive it through the same methods.
type Scheduler struct {
	store    ResultStore
	getLocal readFunc // store.Get without a peer read-through (see localReader)
	queue    *queue
	journal  *Journal
	faults   *faultline.Injector
	hooks    protohook.Hooks
	compute  func(ctx context.Context, spec bench.Job) (*ResultBundle, error)
	parallel int
	deadline time.Duration
	log      *log.Logger
	metrics  *telemetry.Registry
}

// New builds a scheduler. When cfg.Journal is set, New replays it before
// returning: jobs that were pending when the previous process died are
// re-enqueued under their original IDs, except those that have started
// MaxStarts times, which are failed.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Store == nil {
		return nil, errors.New("sched: Config.Store is required")
	}
	if cfg.Manual {
		cfg.Workers = 0 // no pool; RunNext is the only executor
	} else if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}

	var jn *Journal
	var replay Replay
	if cfg.Journal != "" {
		var err error
		jn, replay, err = OpenJournalHooked(cfg.Journal, cfg.Hooks)
		if err != nil {
			return nil, err
		}
	}
	// A simulated crash (protocheck yield panic) during replay must not
	// leak the journal's file descriptor: the world that "died" here is
	// abandoned, but the process running the explorer lives on.
	defer func() {
		if r := recover(); r != nil {
			jn.Close()
			panic(r)
		}
	}()

	s := &Scheduler{
		store:    cfg.Store,
		getLocal: cfg.Store.Get,
		journal:  jn,
		faults:   cfg.Faults,
		hooks:    cfg.Hooks,
		compute:  cfg.Compute,
		parallel: cfg.Parallel,
		deadline: cfg.DefaultDeadline,
		log:      cfg.Log,
		metrics:  cfg.Metrics,
	}
	if lr, ok := cfg.Store.(localReader); ok {
		s.getLocal = lr.GetLocal
	}
	// Register the robustness counters at zero so /metrics shows the full
	// vocabulary from boot, not only after the first fault.
	for _, name := range []string{"journal.replayed", "journal.appends", "store.put_retries"} {
		s.metrics.Counter(name)
	}
	if jn != nil {
		jn.appends = s.metrics.Counter("journal.appends")
	}

	backlog := cfg.Backlog
	if backlog <= 0 {
		backlog = 64
	}
	// Replayed jobs must all fit the backlog regardless of its configured
	// size — rejecting a journaled job on boot would lose accepted work.
	s.queue = newQueue(cfg.Workers, backlog+len(replay.Jobs), s.runJob, s.jobFinished, cfg.Hooks)
	s.queue.idPrefix = cfg.IDPrefix
	s.queue.setSeq(replay.MaxSeq)

	for _, rj := range replay.Jobs {
		if err := s.restore(rj); err != nil {
			s.log.Printf("journal: replay %s: %v", rj.ID, err)
		}
	}
	return s, nil
}

// restore re-registers one journal-replayed job.
func (s *Scheduler) restore(rj ReplayJob) error {
	bj := rj.Req.Job()
	if err := bj.Validate(); err != nil {
		// A job that validated before the crash but not now (simulator
		// surface changed across the restart): settle it in the journal so
		// it is not resurrected forever.
		s.journal.Append(journalRecord{
			T: "finished", ID: rj.ID, State: StateFailed,
			Error: err.Error(), Unix: time.Now().Unix(),
		})
		return err
	}
	j, err := s.queue.Restore(rj, bj.Canonical(), rj.Req.StoreKey())
	if err != nil {
		return err
	}
	s.metrics.Counter("journal.replayed").Inc()
	if s.exhausted(j) {
		return nil
	}
	if rj.Attempts > 0 {
		j.progress.Append(fmt.Sprintf("resumed after restart (started %d times before)", rj.Attempts))
	} else {
		j.progress.Append("resumed after restart (was queued)")
	}
	return s.queue.Enqueue(j)
}

// exhausted settles j as failed, without starting it, once it has started
// MaxStarts times without settling — each start most likely took its
// process down — and reports whether it did. finish's journal hook appends
// the finished record, so the verdict survives the next restart.
func (s *Scheduler) exhausted(j *Job) bool {
	st := j.Status()
	if st.Attempts < MaxStarts {
		return false
	}
	err := fmt.Errorf("started %d times without settling; not started again", st.Attempts)
	s.metrics.Counter("jobs.failed").Inc()
	s.log.Printf("job %s failed: %v", st.ID, err)
	j.finish(StateFailed, func(st *JobStatus) { st.Error = err.Error() })
	return true
}

// Shutdown drains the queue (see queue.Shutdown), then closes the journal.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	err := s.queue.Shutdown(ctx)
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Accepting reports whether the scheduler still takes submissions (false
// once Shutdown has begun).
func (s *Scheduler) Accepting() bool { return s.queue.Accepting() }

// Depth reports the backlog length: the jobs queued for a worker. Cluster
// heartbeats carry it for bounded-load placement and `cluster status`.
func (s *Scheduler) Depth() int { return len(s.queue.backlog) }

// Unsettled returns up to max non-terminal jobs (queued or running), in
// submission order — exactly the set a journal replay would resurrect if
// this process died now. Cluster heartbeats piggyback it so a dead node's
// survivors can re-enqueue its work without reading its journal.
func (s *Scheduler) Unsettled(max int) []PendingJob {
	return s.pendingWhere(max, func(st JobState) bool { return !st.Terminal() })
}

// Queued returns up to max jobs still waiting in the queue (no worker has
// picked them up), in submission order — the set a leaving cluster node
// hands off. Running jobs are excluded: their compute is already paid for
// here, so they drain locally.
func (s *Scheduler) Queued(max int) []PendingJob {
	return s.pendingWhere(max, func(st JobState) bool { return st == StateQueued })
}

func (s *Scheduler) pendingWhere(max int, want func(JobState) bool) []PendingJob {
	var out []PendingJob
	for _, j := range s.queue.List() {
		if max > 0 && len(out) >= max {
			break
		}
		if st := j.Status(); want(st.State) {
			out = append(out, PendingJob{ID: st.ID, Req: j.Request(), Attempts: st.Attempts})
		}
	}
	return out
}

// jobFinished is the queue's onFinish hook: it makes every terminal
// transition durable. A "finished" record marks the job settled, so a
// restart will not re-run it.
func (s *Scheduler) jobFinished(j *Job) {
	st := j.Status()
	rec := journalRecord{T: "finished", ID: st.ID, State: st.State, Error: st.Error, Unix: time.Now().Unix()}
	if err := s.journal.Append(rec); err != nil {
		s.log.Printf("journal: %v", err)
	}
}

// ErrNotDurable is returned by Submit when the job's submitted record could
// not be journaled: the job is not accepted, and the API maps it to 503.
var ErrNotDurable = errors.New("sched: job journal unavailable")

// Submit validates a job and settles it from the result tier or enqueues
// it (the admitted form of POST /api/v1/jobs, shared by the front door,
// in-process tests and cmd tooling). A submission whose result is already
// stored is not a job: it returns the entry's settled view (see Get),
// which no queue holds and no journal records. Every other submission —
// a miss, or Force — is journaled before it queues. A job adopted at
// MaxStarts (req.Attempts) is failed at once.
func (s *Scheduler) Submit(req SubmitRequest) (*Job, error) {
	j := req.Job()
	if err := j.Validate(); err != nil {
		return nil, err
	}
	// A store hit never reaches the queue's own shutdown check in Add.
	if !s.queue.Accepting() {
		return nil, ErrShuttingDown
	}
	key := req.StoreKey()
	if !req.Force {
		if view, ok := s.storeView(key, s.store.Get); ok {
			s.metrics.Counter("store.hits").Inc()
			return view, nil
		}
	}
	rec, err := s.queue.Add(req, j.Canonical(), key)
	if err != nil {
		return nil, err
	}
	// Make the acceptance durable before anything the client can observe:
	// once this record is on disk, a crash at any later point re-runs the
	// job instead of losing it. A job that is not on disk is not accepted.
	st := rec.Status()
	if err := s.journal.Append(journalRecord{
		T: "submitted", ID: st.ID, Key: st.Key, Req: &rec.req, Unix: st.CreatedUnix,
		Attempts: st.Attempts,
	}); err != nil {
		s.queue.Drop(rec)
		s.log.Printf("journal: %v", err)
		return nil, fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	s.metrics.Counter("jobs.submitted").Inc()
	if s.exhausted(rec) {
		return rec, nil
	}
	if err := s.queue.Enqueue(rec); err != nil {
		// The job was journaled but never ran; settle it so replay does
		// not resurrect a submission the client saw rejected.
		s.journal.Append(journalRecord{
			T: "finished", ID: st.ID, State: StateFailed,
			Error: err.Error(), Unix: time.Now().Unix(),
		})
		return nil, err
	}
	return rec, nil
}

// RunNext executes one queued job synchronously on the caller's goroutine,
// returning false when nothing is queued. This is the drive for Manual
// schedulers (protocheck's deterministic scheduler); with a live worker
// pool it is safe but redundant.
func (s *Scheduler) RunNext() bool { return s.queue.RunNext() }

// Get returns the job with the given ID: a queued or computed job this
// process holds or, for an ID of the form <IDPrefix>k<store key>, the
// settled view of that store entry, read afresh on every call. So a store
// hit's ID answers the same way on every read and across restarts, and
// answers false once its entry is gone (collected, or deleted as corrupt
// on a read). The key must pass the store's validation before any disk is
// touched. A read can fail transiently (the store reports an I/O error as
// a miss), so an entry is declared gone only after three tries, as
// persist retries a write. Only the last try may read through to the
// peers, so an ID whose entry is gone costs each peer one request.
func (s *Scheduler) Get(id string) (*Job, bool) {
	if j, ok := s.queue.Get(id); ok {
		return j, true
	}
	key, ok := strings.CutPrefix(id, s.queue.idPrefix+"k")
	if !ok || store.ValidKey(key) != nil {
		return nil, false
	}
	for try := 0; try < 3; try++ {
		read := s.getLocal
		if try == 2 {
			read = s.store.Get
		}
		if j, ok := s.storeView(key, read); ok {
			return j, true
		}
	}
	return nil, false
}

// Status returns the wire status of one job.
func (s *Scheduler) Status(id string) (JobStatus, bool) {
	j, ok := s.Get(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.Status(), true
}

// List returns the status of every job this process holds — queued and
// computed jobs — in submission order. Store hits are not jobs and are not
// listed.
func (s *Scheduler) List() []JobStatus {
	jobs := s.queue.List()
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.Status()
	}
	return statuses
}

// Result returns a job's result bundle, if it finished with one.
func (s *Scheduler) Result(id string) (*ResultBundle, bool) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	return j.Bundle()
}

// Cancel requests cancellation of a job; false means no such job. Like
// DELETE /api/v1/jobs/{id}, cancelling a terminal job (a store hit
// included) is a no-op.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Abort closes the journal without draining the queue — the in-process
// equivalent of the machine losing power. Only protocheck's crash
// simulation calls it; everything else shuts down via Shutdown.
func (s *Scheduler) Abort() error { return s.journal.Close() }

// runJob executes one job on a worker: replay from the result tier when
// possible, otherwise compute once on a private cancellable engine and
// persist the result. The run is bounded by the job's deadline. Any error
// of that one run — a timeout, a panic, an injected fault — settles the
// job failed with the error as its fault context; only a client cancel
// settles it canceled. The simulator is deterministic, so a second run
// would fail the same way: a client that wants one resubmits.
func (s *Scheduler) runJob(j *Job) {
	j.setRunning()
	st := j.Status()

	// Warm path: the submission-time check may have raced another job
	// computing the same key, so recheck here where it's cheapest.
	if !j.req.Force && s.serveFromStore(j, st.Key) {
		return
	}
	s.metrics.Counter("store.misses").Inc()

	// A durable "started" record counts this start: if the process dies
	// mid-run, replay knows the job was interrupted, and how often (see
	// MaxStarts). A start the journal cannot count is not made, or a job
	// that kills its process could escape the bound.
	if err := s.journal.Append(journalRecord{T: "started", ID: st.ID, Unix: time.Now().Unix()}); err != nil {
		err = fmt.Errorf("not started: %w", err)
		s.metrics.Counter("jobs.failed").Inc()
		s.log.Printf("job %s failed: %v", st.ID, err)
		j.finish(StateFailed, func(st *JobStatus) { st.Error = err.Error() })
		return
	}
	j.countStart()
	s.faults.Crash("job.started")

	// The deadline: the engine aborts at its next hierarchy probe once the
	// context dies, so a wedged or poisoned cell cannot hold a worker slot
	// past it.
	ctx := j.ctx
	cancel := context.CancelFunc(func() {})
	if d := s.jobDeadline(j); d > 0 {
		ctx, cancel = context.WithTimeout(j.ctx, d)
	}
	defer cancel()

	var res runResult
	if s.compute != nil {
		res = s.executeCompute(ctx, st.Job)
	} else {
		res = s.executeEngine(ctx, j, st.Job)
	}
	if res.err == nil && res.aborted && j.ctx.Err() == nil {
		// A deadline-aborted engine returns partial tables with no error.
		res.err = fmt.Errorf("exceeded deadline %s", s.jobDeadline(j))
	}

	switch {
	case j.ctx.Err() != nil:
		// A cancelled engine unwinds with partial tables and zeroed cells;
		// everything it printed is discarded with the job.
		s.metrics.Counter("jobs.canceled").Inc()
		j.finish(StateCanceled, func(st *JobStatus) {
			st.ElapsedMS = res.elapsed
			st.Cells = CellStats{Hits: res.hits, Runs: res.runs}
			j.profile = res.profile
		})
	case res.err != nil:
		s.metrics.Counter("jobs.failed").Inc()
		s.log.Printf("job %s failed: %v", st.ID, res.err)
		j.finish(StateFailed, func(st *JobStatus) { st.Error = res.err.Error() })
	default:
		s.faults.Crash("job.before-persist")
		protohook.Yield(s.hooks, "server.persist", st.ID)
		s.persist(st.Key, st.Job, res.bundle, res.elapsed)
		s.faults.Crash("job.before-finish")
		s.metrics.Counter("jobs.completed").Inc()
		s.metrics.Counter("cells.run").Add(uint64(res.runs))
		s.metrics.Counter("cells.cached").Add(uint64(res.hits))
		s.metrics.Histogram("job.elapsed_ms").Observe(uint64(res.elapsed))
		j.finish(StateDone, func(st *JobStatus) {
			st.ElapsedMS = res.elapsed
			st.Cells = CellStats{Hits: res.hits, Runs: res.runs}
			j.bundle = res.bundle
			j.profile = res.profile
		})
	}
}

// runResult is what one run of a job's work produced, whichever executor
// (the bench engine or a Config.Compute stub) ran it.
type runResult struct {
	bundle     *ResultBundle
	profile    *telemetry.RunProfile
	hits, runs int
	elapsed    int64
	err        error
	aborted    bool // the executor stopped because its context died
}

// executeEngine runs a job on a private cancellable bench engine — the
// production executor.
func (s *Scheduler) executeEngine(ctx context.Context, j *Job, spec bench.Job) runResult {
	eng := bench.NewEngine(s.jobParallel(j))
	eng.BindContext(ctx)
	eng.Progress = j.progress
	eng.CellHook = s.cellHook
	eng.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true, Events: j.req.Trace})

	var out bytes.Buffer
	csvs := map[string]*bytes.Buffer{}
	sink := func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		csvs[name] = buf
		return nopCloser{buf}, nil
	}
	start := time.Now()
	err := runSafely(func() error { return bench.RunJob(eng, spec, &out, sink) })
	res := runResult{
		err:     err,
		elapsed: time.Since(start).Milliseconds(),
		profile: telemetry.Dump(eng.Telemetry.Profiles()),
		aborted: eng.Canceled(),
	}
	res.hits, res.runs = eng.CacheStats()
	if err == nil {
		res.bundle = &ResultBundle{Output: out.String()}
		if len(csvs) > 0 {
			res.bundle.CSV = make(map[string]string, len(csvs))
			for name, buf := range csvs {
				res.bundle.CSV[name] = buf.String()
			}
		}
	}
	return res
}

// executeCompute runs a job through the Config.Compute override, with the
// same panic containment and cancellation handling as the engine path.
// Simulated protocheck crashes are rethrown, never converted into job
// failures — a dead process reports nothing.
func (s *Scheduler) executeCompute(ctx context.Context, spec bench.Job) runResult {
	start := time.Now()
	var res runResult
	res.err = runSafely(func() (err error) {
		res.bundle, err = s.compute(ctx, spec)
		return err
	})
	res.elapsed = time.Since(start).Milliseconds()
	res.aborted = ctx.Err() != nil
	if res.err == nil && res.bundle == nil && !res.aborted {
		res.err = errors.New("compute returned no result")
	}
	return res
}

// cellHook is the engine's fault seam: an "engine.cell" rule can delay a
// cell, error it (surfaced as a panic so it unwinds like a workload
// fault), or crash the process at cell granularity.
func (s *Scheduler) cellHook(label string) {
	if err := s.faults.Fire("engine.cell", label); err != nil {
		panic(err)
	}
}

func (s *Scheduler) jobDeadline(j *Job) time.Duration {
	if j.req.DeadlineMS > 0 {
		return time.Duration(j.req.DeadlineMS) * time.Millisecond
	}
	return s.deadline
}

func (s *Scheduler) jobParallel(j *Job) int {
	if j.req.Parallel > 0 {
		return j.req.Parallel
	}
	return s.parallel
}

// runSafely runs a job's work, converting a panic out of it (bad workload
// wiring, simulator invariant failures, injected poison cells) into a job
// error instead of killing the worker. Panic errors are wrapped, not
// flattened, so the fault context survives the recovery.
func runSafely(work func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if protohook.IsCrash(r) {
				// A simulated protocheck crash is the process dying, not the
				// experiment failing; let it unwind to the explorer.
				panic(r)
			}
			if e, ok := r.(error); ok {
				err = fmt.Errorf("experiment panicked: %w", e)
			} else {
				err = fmt.Errorf("experiment panicked: %v", r)
			}
		}
	}()
	return work()
}

// serveFromStore settles a queued job from the result tier when its key
// is stored, and reports whether it did — the worker's recheck, for a job
// that queued while another computed the same key.
func (s *Scheduler) serveFromStore(j *Job, key string) bool {
	bundle, meta, ok := s.stored(key, s.store.Get)
	if !ok {
		return false
	}
	s.metrics.Counter("store.hits").Inc()
	j.progress.Append(servedLine(meta))
	j.finish(StateDone, func(st *JobStatus) {
		st.FromStore = true
		j.bundle = bundle
	})
	return true
}

// storeView returns the settled job that stands for key's store entry,
// read with read: a pure function of the entry, so Submit's answer and
// every later Get of the same ID agree. Its spec is the job the entry
// records (store.Meta.Job); an entry whose record does not digest to key
// cannot stand for it and reads as a miss, so a submission recomputes and
// rewrites it.
func (s *Scheduler) storeView(key string, read readFunc) (*Job, bool) {
	bundle, meta, ok := s.stored(key, read)
	var spec bench.Job
	if !ok || json.Unmarshal(meta.Job, &spec) != nil || spec.Digest() != key {
		return nil, false
	}
	j := &Job{
		cancel:   func() {},
		progress: newProgressBuffer(),
		done:     settledDone,
		status: JobStatus{
			ID: s.queue.idPrefix + "k" + key, Key: key, State: StateDone, Job: spec,
			FromStore: true, CreatedUnix: meta.CreatedUnix, FinishedUnix: meta.CreatedUnix,
		},
		bundle: bundle,
	}
	j.progress.Append(servedLine(meta))
	j.progress.Close()
	return j, true
}

// settledDone is every store view's Done channel: closed from the start.
var settledDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// readFunc reads the result tier: ResultStore.Get, or getLocal.
type readFunc func(key, version string) ([]byte, store.Meta, bool)

// stored reads key's result bundle from the tier with read. A stored
// bundle that fails to decode is treated as corruption (deleted, so the
// caller recomputes), mirroring the store's own checks.
func (s *Scheduler) stored(key string, read readFunc) (*ResultBundle, store.Meta, bool) {
	body, meta, ok := read(key, bench.SimVersion)
	if !ok {
		return nil, meta, false
	}
	var bundle ResultBundle
	if err := json.Unmarshal(body, &bundle); err != nil {
		s.store.Delete(key)
		return nil, meta, false
	}
	return &bundle, meta, true
}

func servedLine(meta store.Meta) string {
	return fmt.Sprintf("served from store (saved ~%dms of compute)", meta.ElapsedMS)
}

func (s *Scheduler) persist(key string, spec bench.Job, bundle *ResultBundle, elapsedMS int64) {
	body, err := json.Marshal(bundle)
	if err != nil {
		s.log.Printf("store: encode %s: %v", key, err)
		return
	}
	jobJSON, _ := json.Marshal(spec)
	meta := store.Meta{
		Version:     bench.SimVersion,
		CreatedUnix: time.Now().Unix(),
		ElapsedMS:   elapsedMS,
		Job:         jobJSON,
	}
	// Store writes can carry injected (or real, transient) I/O faults;
	// retry a few times before degrading, so a flaky disk costs the warm
	// path as rarely as possible. A failed persist still does not fail
	// this job: the result is served from memory.
	var perr error
	for try := 0; try < 3; try++ {
		if try > 0 {
			s.metrics.Counter("store.put_retries").Inc()
		}
		if perr = s.store.Put(key, body, meta); perr == nil {
			return
		}
	}
	s.log.Printf("store: put %s: %v", key, perr)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
