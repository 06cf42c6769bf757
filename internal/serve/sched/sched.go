package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
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
	// every accepted job is fsync'd there before the client sees a 201,
	// and on boot the journal is replayed — queued or interrupted jobs
	// resume, quarantined jobs stay parked. Empty disables durability
	// (in-process tests, throwaway daemons).
	Journal string
	// Faults, when non-nil, is the armed fault injector; the scheduler
	// fires "engine.cell" / "crash.*" sites itself (the store carries its
	// own sites, armed by the daemon).
	Faults *faultline.Injector
	// MaxAttempts bounds executions per job before quarantine (default 3).
	MaxAttempts int
	// RetryBase and RetryCap shape the exponential backoff between
	// attempts (defaults 250ms and 5s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// DefaultDeadline bounds each attempt of jobs that do not carry their
	// own deadline_ms (0 = unbounded).
	DefaultDeadline time.Duration

	// Hooks, when non-nil, arms protocheck's yield points through the
	// queue, store and journal (see internal/protohook). Production
	// daemons leave it nil: every site is then one predictable branch.
	Hooks protohook.Hooks
	// Compute, when non-nil, replaces the bench engine as the job
	// executor — protocheck and deterministic tests supply a stub so
	// protocol exploration never pays for real simulation. Its result is
	// persisted and served exactly like an engine result; errors are
	// classified by the same transient rules (injected faults and panics
	// retry, other errors fail the job). Production daemons leave it nil.
	Compute func(ctx context.Context, spec bench.Job) (*ResultBundle, error)
	// Manual disables the worker pool: jobs execute only when the owner
	// calls RunNext, on the caller's goroutine. This is the deterministic
	// drive protocheck schedules; production daemons leave it false.
	Manual bool
	// IDPrefix namespaces minted job IDs ("<prefix>j000001"). Cluster
	// nodes pass "<nodeID>-" so IDs are globally unique across the
	// membership and name the node that holds the job: any node resolves
	// a fetched ID locally or by proxying to the node its prefix names.
	// Empty outside cluster mode (the historical format).
	IDPrefix string
}

// Scheduler owns the job lifecycle: the bounded queue and its workers, the
// durable journal, retries, deadlines, and quarantine. It is deliberately
// transport-agnostic — the HTTP front door (internal/serve) and any future
// cluster placement policy drive it through the same methods.
type Scheduler struct {
	store       ResultStore
	queue       *queue
	journal     *Journal
	faults      *faultline.Injector
	hooks       protohook.Hooks
	compute     func(ctx context.Context, spec bench.Job) (*ResultBundle, error)
	parallel    int
	maxAttempts int
	retryBase   time.Duration
	retryCap    time.Duration
	deadline    time.Duration
	log         *log.Logger
	metrics     *telemetry.Registry
}

// New builds a scheduler. When cfg.Journal is set, New replays it before
// returning: jobs that were pending when the previous process died are
// re-enqueued under their original IDs, quarantined jobs are restored
// parked.
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
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 5 * time.Second
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
		store:       cfg.Store,
		journal:     jn,
		faults:      cfg.Faults,
		hooks:       cfg.Hooks,
		compute:     cfg.Compute,
		parallel:    cfg.Parallel,
		maxAttempts: cfg.MaxAttempts,
		retryBase:   cfg.RetryBase,
		retryCap:    cfg.RetryCap,
		deadline:    cfg.DefaultDeadline,
		log:         cfg.Log,
		metrics:     cfg.Metrics,
	}
	// Register the robustness counters at zero so /metrics shows the full
	// vocabulary from boot, not only after the first fault.
	for _, name := range []string{
		"jobs.retried", "jobs.quarantined", "jobs.requeued",
		"journal.replayed", "store.put_retries",
	} {
		s.metrics.Counter(name)
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
	spec, key := bj.Canonical(), rj.Req.StoreKey()
	if rj.Quarantined {
		_, err := s.queue.Park(rj, spec, key)
		return err
	}
	j, err := s.queue.Restore(rj, spec, key)
	if err != nil {
		return err
	}
	s.metrics.Counter("journal.replayed").Inc()
	if rj.Interrupted {
		j.progress.Append(fmt.Sprintf("resumed after restart (interrupted on attempt %d)", rj.Attempts))
	} else {
		j.progress.Append("resumed after restart (was queued)")
	}
	return s.queue.Enqueue(j)
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

// Depth reports the backlog occupancy and capacity — the front door's
// backpressure probe.
func (s *Scheduler) Depth() (queued, capacity int) {
	return len(s.queue.backlog), cap(s.queue.backlog)
}

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
			out = append(out, PendingJob{ID: st.ID, Req: j.Request()})
		}
	}
	return out
}

// jobFinished is the queue's onFinish hook: it makes every terminal
// transition durable. A "finished" record marks the job settled, so a
// restart will not re-run it; a quarantine verdict carries the fault
// context so the parked job survives restarts intact.
func (s *Scheduler) jobFinished(j *Job) {
	st := j.Status()
	rec := journalRecord{
		T: "finished", ID: st.ID, State: st.State,
		Attempts: st.Attempts, Unix: time.Now().Unix(),
	}
	if st.State == StateFailed || st.State == StateQuarantined {
		rec.Error = st.Error
	}
	if err := s.journal.Append(rec); err != nil {
		s.log.Printf("journal: %v", err)
	}
}

// Submit validates and enqueues a job (the admitted form of POST
// /api/v1/jobs, shared by the front door, in-process tests and cmd
// tooling). A job whose result is already in the result tier completes
// immediately, without waiting behind whatever the worker pool is
// computing.
func (s *Scheduler) Submit(req SubmitRequest) (*Job, error) {
	j := req.Job()
	if err := j.Validate(); err != nil {
		return nil, err
	}
	spec := j.Canonical()
	rec, err := s.queue.Add(req, spec, req.StoreKey())
	if err != nil {
		return nil, err
	}
	s.metrics.Counter("jobs.submitted").Inc()
	// Make the acceptance durable before anything the client can observe:
	// once this record is on disk, a crash at any later point re-runs the
	// job instead of losing it.
	st := rec.Status()
	if err := s.journal.Append(journalRecord{
		T: "submitted", ID: st.ID, Key: st.Key, Req: &rec.req, Unix: st.CreatedUnix,
	}); err != nil {
		s.log.Printf("journal: %v", err)
	}
	if !req.Force && s.serveFromStore(rec, st.Key) {
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

// Get returns the job record with the given ID.
func (s *Scheduler) Get(id string) (*Job, bool) { return s.queue.Get(id) }

// Status returns the wire status of one job.
func (s *Scheduler) Status(id string) (JobStatus, bool) {
	j, ok := s.queue.Get(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.Status(), true
}

// List returns every job's status in submission order.
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
	j, ok := s.queue.Get(id)
	if !ok {
		return nil, false
	}
	return j.Bundle()
}

// Cancel requests cancellation of a job; false means no such job. Like
// DELETE /api/v1/jobs/{id}, cancelling a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.queue.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Quarantine returns the parked jobs awaiting operator action, in
// submission order (released jobs drop off: their RequeuedAs points at the
// replacement).
func (s *Scheduler) Quarantine() []JobStatus {
	jobs := s.quarantined()
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.Status()
	}
	return statuses
}

// quarantined returns the parked jobs awaiting operator action (released
// ones drop off the list: their RequeuedAs points at the fresh job).
func (s *Scheduler) quarantined() []*Job {
	var out []*Job
	for _, j := range s.queue.List() {
		st := j.Status()
		if st.State == StateQuarantined && st.RequeuedAs == "" {
			out = append(out, j)
		}
	}
	return out
}

// Requeue sentinels: the HTTP layer maps them onto status codes, and
// protocheck's oracle distinguishes "exactly-once settled" violations from
// legitimate rejections by them.
var (
	ErrNoSuchJob       = errors.New("no such job")
	ErrNotQuarantined  = errors.New("not quarantined")
	ErrAlreadyRequeued = errors.New("already requeued")
)

// Requeue releases a quarantined job by resubmitting its request as a
// fresh job — the parked record stays as the audit trail, annotated with
// the replacement's ID. A "requeued" journal record settles the old job so
// a restart does not restore it alongside its replacement.
func (s *Scheduler) Requeue(id string) (old, fresh JobStatus, err error) {
	j, ok := s.queue.Get(id)
	if !ok {
		return JobStatus{}, JobStatus{}, fmt.Errorf("%w %q", ErrNoSuchJob, id)
	}
	st := j.Status()
	if st.State != StateQuarantined {
		return st, JobStatus{}, fmt.Errorf("job %s is %s, %w", st.ID, st.State, ErrNotQuarantined)
	}
	if st.RequeuedAs != "" {
		return st, JobStatus{}, fmt.Errorf("job %s %w as %s", st.ID, ErrAlreadyRequeued, st.RequeuedAs)
	}
	nj, err := s.Submit(j.req)
	if err != nil {
		return st, JobStatus{}, err
	}
	newID := nj.Status().ID
	j.mu.Lock()
	j.status.RequeuedAs = newID
	j.mu.Unlock()
	if jerr := s.journal.Append(journalRecord{
		T: "requeued", ID: st.ID, New: newID, Unix: time.Now().Unix(),
	}); jerr != nil {
		s.log.Printf("journal: %v", jerr)
	}
	s.metrics.Counter("jobs.requeued").Inc()
	return j.Status(), nj.Status(), nil
}

// Abort closes the journal without draining the queue — the in-process
// equivalent of the machine losing power. Only protocheck's crash
// simulation calls it; everything else shuts down via Shutdown.
func (s *Scheduler) Abort() error { return s.journal.Close() }

// runJob executes one job on a worker: replay from the result tier when
// possible, otherwise compute on a private cancellable engine and persist
// the result. Each attempt runs under the job's deadline; attempts that
// time out, panic, or hit injected faults are retried with exponential
// backoff, and a job that exhausts its attempts is quarantined with its
// fault context rather than silently failed.
func (s *Scheduler) runJob(j *Job) {
	j.setRunning()
	key := j.Status().Key

	// Warm path: the submission-time check may have raced another job
	// computing the same key, so recheck here where it's cheapest.
	if !j.req.Force && s.serveFromStore(j, key) {
		return
	}
	s.metrics.Counter("store.misses").Inc()

	for attempt := 1; ; attempt++ {
		done, transient, err := s.runAttempt(j, attempt)
		if done {
			return
		}
		if j.ctx.Err() != nil {
			// The client cancelled between attempts.
			s.metrics.Counter("jobs.canceled").Inc()
			j.finish(StateCanceled, nil)
			return
		}
		if !transient {
			s.metrics.Counter("jobs.failed").Inc()
			s.log.Printf("job %s failed: %v", j.Status().ID, err)
			j.finish(StateFailed, func(st *JobStatus) { st.Error = err.Error() })
			return
		}
		if attempt >= s.maxAttempts {
			s.metrics.Counter("jobs.quarantined").Inc()
			s.log.Printf("job %s quarantined after %d attempts: %v", j.Status().ID, attempt, err)
			j.progress.Append(fmt.Sprintf("quarantined after %d attempts: %v", attempt, err))
			j.finish(StateQuarantined, func(st *JobStatus) { st.Error = err.Error() })
			return
		}
		d := s.backoff(j.Status().ID, attempt)
		s.metrics.Counter("jobs.retried").Inc()
		j.progress.Append(fmt.Sprintf("attempt %d failed (%v); retrying in %s", attempt, err, d.Round(time.Millisecond)))
		select {
		case <-time.After(d):
		case <-j.ctx.Done():
		}
	}
}

// attemptResult is what one execution of a job's work produced, whichever
// executor (the bench engine or a Config.Compute stub) ran it. The
// classification tail of runAttempt consumes it uniformly.
type attemptResult struct {
	bundle     *ResultBundle
	profile    *telemetry.RunProfile
	hits, runs int
	elapsed    int64
	err        error
	panicked   bool
	aborted    bool // the executor stopped because its context died
}

// runAttempt executes one attempt of a job. done means the job reached a
// terminal state (success or user cancellation) and the attempt loop must
// stop; otherwise err describes the failure and transient says whether it
// is worth retrying (timeouts, panics, injected faults) or final (a
// malformed experiment fails the same way every time).
func (s *Scheduler) runAttempt(j *Job, attempt int) (done, transient bool, err error) {
	st := j.Status()
	j.setAttempt(attempt)
	// A durable "started" record: if the process dies mid-attempt, replay
	// knows the job was interrupted (not merely queued) and re-runs it.
	if jerr := s.journal.Append(journalRecord{T: "started", ID: st.ID, Unix: time.Now().Unix()}); jerr != nil {
		s.log.Printf("journal: %v", jerr)
	}
	s.faults.Crash("job.started")

	// Per-attempt deadline: the engine aborts at its next hierarchy probe
	// once the context dies, so a wedged or poisoned cell cannot hold a
	// worker slot past the deadline.
	ctx := j.ctx
	cancel := context.CancelFunc(func() {})
	if d := s.jobDeadline(j); d > 0 {
		ctx, cancel = context.WithTimeout(j.ctx, d)
	}
	defer cancel()

	var res attemptResult
	if s.compute != nil {
		res = s.executeCompute(ctx, st.Job)
	} else {
		res = s.executeEngine(ctx, j, st.Job)
	}

	userCanceled := j.ctx.Err() != nil
	timedOut := res.aborted && !userCanceled

	switch {
	case userCanceled:
		// A cancelled engine unwinds with partial tables and zeroed cells;
		// everything it printed is discarded with the job.
		s.metrics.Counter("jobs.canceled").Inc()
		j.finish(StateCanceled, func(st *JobStatus) {
			st.ElapsedMS = res.elapsed
			st.Cells = CellStats{Hits: res.hits, Runs: res.runs}
			j.profile = res.profile
		})
		return true, false, nil
	case timedOut && res.err == nil:
		// A deadline-aborted engine returns partial tables with no error;
		// synthesize the failure the attempt loop classifies on.
		return false, true, fmt.Errorf("attempt %d exceeded deadline %s", attempt, s.jobDeadline(j))
	case res.err != nil:
		transient := timedOut || res.panicked || faultline.IsFault(res.err)
		return false, transient, res.err
	}

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
	return true, false, nil
}

// executeEngine runs one attempt on a private cancellable bench engine —
// the production executor.
func (s *Scheduler) executeEngine(ctx context.Context, j *Job, spec bench.Job) attemptResult {
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
	err, panicked := runSafely(func() error { return bench.RunJob(eng, spec, &out, sink) })
	res := attemptResult{
		err:      err,
		panicked: panicked,
		elapsed:  time.Since(start).Milliseconds(),
		profile:  telemetry.Dump(eng.Telemetry.Profiles()),
		aborted:  eng.Canceled(),
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

// executeCompute runs one attempt through the Config.Compute override,
// with the same panic containment and cancellation classification as the
// engine path. Simulated protocheck crashes are rethrown, never converted
// into job failures — a dead process reports nothing.
func (s *Scheduler) executeCompute(ctx context.Context, spec bench.Job) attemptResult {
	start := time.Now()
	var res attemptResult
	res.err, res.panicked = runSafely(func() (err error) {
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

// backoff computes the pause before the next attempt: exponential in the
// attempt number, capped, with deterministic equal jitter (hashed from the
// job ID and attempt, so tests replay identical schedules).
func (s *Scheduler) backoff(id string, attempt int) time.Duration {
	d := s.retryBase << uint(attempt-1)
	if d > s.retryCap || d <= 0 {
		d = s.retryCap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	return half + time.Duration(h.Sum64()%uint64(half))
}

func (s *Scheduler) jobParallel(j *Job) int {
	if j.req.Parallel > 0 {
		return j.req.Parallel
	}
	return s.parallel
}

// runSafely runs one attempt's work, converting a panic out of it (bad
// workload wiring, simulator invariant failures, injected poison cells)
// into a job error instead of killing the worker. Panic errors are
// wrapped, not flattened, so faultline.IsFault still recognises injected
// faults through the recovery.
func runSafely(work func() error) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if protohook.IsCrash(r) {
				// A simulated protocheck crash is the process dying, not the
				// experiment failing; let it unwind to the explorer.
				panic(r)
			}
			panicked = true
			if e, ok := r.(error); ok {
				err = fmt.Errorf("experiment panicked: %w", e)
			} else {
				err = fmt.Errorf("experiment panicked: %v", r)
			}
		}
	}()
	return work(), false
}

// serveFromStore settles j from the result store when key is stored, and
// reports whether it did. A stored bundle that fails to decode is treated
// as corruption (deleted, so the caller recomputes), mirroring the
// store's own checks.
func (s *Scheduler) serveFromStore(j *Job, key string) bool {
	body, meta, ok := s.store.Get(key, bench.SimVersion)
	if !ok {
		return false
	}
	var bundle ResultBundle
	if err := json.Unmarshal(body, &bundle); err != nil {
		s.store.Delete(key)
		return false
	}
	s.metrics.Counter("store.hits").Inc()
	j.progress.Append(fmt.Sprintf("served from store (saved ~%dms of compute)", meta.ElapsedMS))
	j.finish(StateDone, func(st *JobStatus) {
		st.FromStore = true
		j.bundle = &bundle
	})
	return true
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
