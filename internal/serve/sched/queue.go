package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/protohook"
	"sgxbounds/internal/telemetry"
)

// ErrBacklogFull is returned by Enqueue when the queue's backlog is at
// capacity; the API maps it to 503 so clients retry rather than pile up.
var ErrBacklogFull = errors.New("sched: job backlog full")

// ErrShuttingDown is returned by Add/Enqueue once shutdown has begun.
var ErrShuttingDown = errors.New("sched: shutting down")

// Job is the scheduler-side record of one submitted job: its wire status
// plus the run-side channels (cancellation, progress, telemetry profile).
// A store hit's Job is a settled view built afresh from the store entry
// (Scheduler.storeView): it never runs, and nothing keeps it.
type Job struct {
	req      SubmitRequest
	ctx      context.Context
	cancel   context.CancelFunc
	progress *ProgressBuffer
	done     chan struct{}   // closed when the job reaches a terminal state
	onFinish func(*Job)      // journal hook; runs once, after the terminal transition
	hooks    protohook.Hooks // protocheck yield seam (nil in production)

	mu      sync.Mutex
	status  JobStatus
	bundle  *ResultBundle         // set when State == done
	profile *telemetry.RunProfile // set after a computed (non-store) run
}

// Status returns a copy of the job's current wire status.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Bundle returns the result bundle once the job is done.
func (j *Job) Bundle() (*ResultBundle, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bundle, j.bundle != nil
}

// Profile returns the job's telemetry dump, if it computed anything.
func (j *Job) Profile() (*telemetry.RunProfile, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile, j.profile != nil
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation of the job. Cancelling a terminal job is a
// no-op: its context is already released.
func (j *Job) Cancel() { j.cancel() }

// Progress returns the job's progress line buffer, which the transport
// streams to clients.
func (j *Job) Progress() *ProgressBuffer { return j.progress }

// Request returns the submission that created the job (the cluster layer
// resubmits it verbatim when another node adopts the job).
func (j *Job) Request() SubmitRequest { return j.req }

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status.State = StateRunning
	j.status.StartedUnix = time.Now().Unix()
	j.mu.Unlock()
}

// countStart records one more start of the job.
func (j *Job) countStart() {
	j.mu.Lock()
	j.status.Attempts++
	j.mu.Unlock()
}

// finish moves the job to a terminal state and wakes waiters. mutate runs
// under the job lock to fill in state-specific fields (including the
// private bundle/profile, which is why it closes over j).
func (j *Job) finish(state JobState, mutate func(*JobStatus)) {
	// The last pre-transition instant: a crash here means the client never
	// observes the terminal state and replay must re-run or re-settle it.
	protohook.Yield(j.hooks, "job.finish", string(state))
	j.mu.Lock()
	if j.status.State.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status.State = state
	j.status.FinishedUnix = time.Now().Unix()
	if mutate != nil {
		mutate(&j.status)
	}
	j.mu.Unlock()
	j.progress.Close()
	j.cancel() // release the context's resources
	close(j.done)
	if j.onFinish != nil {
		j.onFinish(j)
	}
}

// queue is a bounded job queue: a fixed worker pool draining a fixed-size
// backlog. Submission is non-blocking — a full backlog is an error, not a
// stall — and shutdown drains what was already accepted.
type queue struct {
	run      func(*Job)
	onFinish func(*Job)
	hooks    protohook.Hooks
	backlog  chan *Job
	wg       sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	idPrefix string
	closed   bool
}

// newQueue starts workers goroutines draining a backlog of the given
// capacity; run executes one job, onFinish (optional) observes each
// terminal transition — the server's journal hook. workers == 0 is manual
// mode: no goroutines are spawned and jobs execute only through RunNext,
// on the caller's goroutine — the deterministic drive protocheck needs.
func newQueue(workers, backlog int, run func(*Job), onFinish func(*Job), hooks protohook.Hooks) *queue {
	if workers < 0 {
		workers = 1
	}
	if backlog <= 0 {
		backlog = 64
	}
	q := &queue{
		run:      run,
		onFinish: onFinish,
		hooks:    hooks,
		backlog:  make(chan *Job, backlog),
		jobs:     make(map[string]*Job),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.backlog {
		q.runOne(j)
	}
}

// runOne is the worker-loop body, shared with RunNext so manual mode and
// the goroutine pool execute jobs identically.
func (q *queue) runOne(j *Job) {
	protohook.Yield(q.hooks, "queue.pickup", j.Status().ID)
	if j.ctx.Err() != nil {
		// Cancelled while queued: never started, nothing to discard.
		j.finish(StateCanceled, nil)
		return
	}
	q.run(j)
}

// RunNext executes one backlog entry synchronously on the caller's
// goroutine, returning false when the backlog is empty. It is the manual
// (workers == 0) drive; mixing it with a live worker pool is safe but
// pointless.
func (q *queue) RunNext() bool {
	select {
	case j, ok := <-q.backlog:
		if !ok {
			return false
		}
		q.runOne(j)
		return true
	default:
		return false
	}
}

// Add registers a new job record built from req, with its canonical spec
// and store key resolved into the status. The job is visible to Get/List
// immediately but runs only once Enqueue hands it to the worker pool — the
// gap is where the scheduler journals it.
func (q *queue) Add(req SubmitRequest, spec bench.Job, key string) (*Job, error) {
	return q.add(req, spec, key, "", time.Now().Unix())
}

func (q *queue) add(req SubmitRequest, spec bench.Job, key, id string, createdUnix int64) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		req:      req,
		ctx:      ctx,
		cancel:   cancel,
		progress: newProgressBuffer(),
		done:     make(chan struct{}),
		onFinish: q.onFinish,
		hooks:    q.hooks,
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		cancel()
		return nil, ErrShuttingDown
	}
	if id == "" {
		q.nextID++
		id = fmt.Sprintf("%sj%06d", q.idPrefix, q.nextID)
	}
	j.status = JobStatus{
		ID: id, Key: key, State: StateQueued, Job: spec,
		Attempts: req.Attempts, RecoveredFrom: req.RecoveredFrom, CreatedUnix: createdUnix,
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	return j, nil
}

// setSeq advances the ID counter past n, so IDs issued after a journal
// replay never collide with IDs issued before the crash.
func (q *queue) setSeq(n int) {
	q.mu.Lock()
	if n > q.nextID {
		q.nextID = n
	}
	q.mu.Unlock()
}

// Restore re-registers a journal-replayed pending job under its original
// ID, with its start count. The caller Enqueues it; its status is marked
// replayed so operators can tell resumed work from fresh submissions.
func (q *queue) Restore(rj ReplayJob, spec bench.Job, key string) (*Job, error) {
	req := rj.Req
	req.Attempts = rj.Attempts
	j, err := q.add(req, spec, key, rj.ID, rj.CreatedUnix)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.status.Replayed = true
	j.mu.Unlock()
	return j, nil
}

// Enqueue hands an Added job to the worker pool. On a full backlog the job
// is removed again so a rejected submission leaves no trace.
func (q *queue) Enqueue(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.remove(j)
		return ErrShuttingDown
	}
	protohook.Yield(q.hooks, "queue.enqueue", j.Status().ID)
	select {
	case q.backlog <- j: // buffered send under mu; never blocks
		return nil
	default:
		q.remove(j)
		return ErrBacklogFull
	}
}

// Drop deletes an Added job that was never enqueued, so a submission the
// scheduler could not accept leaves no trace.
func (q *queue) Drop(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.remove(j)
}

// remove deletes a job record (caller holds q.mu).
func (q *queue) remove(j *Job) {
	id := j.Status().ID
	delete(q.jobs, id)
	for i, o := range q.order {
		if o == id {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
	j.cancel()
}

// Accepting reports whether the queue still takes submissions.
func (q *queue) Accepting() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed
}

// Get returns the job with the given ID.
func (q *queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// List returns every job in submission order.
func (q *queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, len(q.order))
	for i, id := range q.order {
		out[i] = q.jobs[id]
	}
	return out
}

// Shutdown stops intake and drains: jobs still queued are cancelled (they
// never started computing), jobs in flight run to completion so their
// results land in the store. If ctx expires first, in-flight jobs are
// cancelled too and Shutdown returns ctx's error once they unwind.
func (q *queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	for _, j := range q.jobs {
		if j.Status().State == StateQueued {
			j.cancel()
		}
	}
	close(q.backlog)
	q.mu.Unlock()

	done := make(chan struct{})
	go func() { q.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		for _, j := range q.jobs {
			j.cancel()
		}
		q.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
