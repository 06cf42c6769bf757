package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/cluster"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/protohook"
	"sgxbounds/internal/serve/frontdoor"
	"sgxbounds/internal/serve/resultier"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// TenantHeader names the request header that identifies the submitting
// tenant for quota and rate-limit accounting. Absent means DefaultTenant.
// Wire header names are defined once, in the cluster layer, which carries
// them on forwarded submissions.
const TenantHeader = cluster.TenantHeader

// CoalescedHeader is set to "true" on a submit response that attached to
// an identical in-flight computation instead of starting its own.
const CoalescedHeader = cluster.CoalescedHeader

// DefaultTenant is the accounting bucket for requests with no tenant
// header.
const DefaultTenant = "default"

// Config parameterises a Server.
type Config struct {
	Store    *store.Store
	Workers  int // concurrent jobs (default 1: jobs already parallelise internally)
	Backlog  int // queued-job capacity (default 64)
	Parallel int // default engine workers per job (0 = GOMAXPROCS)
	Log      *log.Logger

	// Journal, when non-empty, is the path of the durable job journal:
	// every accepted job is fsync'd there before the client sees a 201,
	// and on boot the journal is replayed — queued or interrupted jobs
	// resume, quarantined jobs stay parked. Empty disables durability
	// (in-process tests, throwaway daemons).
	Journal string
	// Faults, when non-nil, is the armed fault injector; the server wires
	// it into its store and scheduler ("engine.cell" / "crash.*" sites).
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

	// DefaultEPCBytes, when non-zero, is the EPC capacity applied to
	// submissions that do not carry their own epc_bytes (sgxd's
	// -epc-bytes flag). Resolved before the scheduler journals the
	// request, so store keys, journal replay, and cluster forwarding all
	// see the resolved capacity rather than a node-relative default.
	DefaultEPCBytes uint64

	// CacheBytes is the in-memory LRU result tier's budget
	// (internal/serve/resultier). 0 disables the tier: every result read
	// hits disk, which is what the corruption-recovery tests (and any
	// deployment that distrusts RAM more than IO) want.
	CacheBytes int64
	// TenantRPS / TenantBurst / TenantMaxInFlight parameterise the
	// admission layer's per-tenant token bucket and in-flight quota
	// (internal/serve/frontdoor); zero values disable each control.
	TenantRPS         float64
	TenantBurst       int
	TenantMaxInFlight int
	// RetryAfter is the pause advertised with 429 responses (default 1s).
	RetryAfter time.Duration

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

	// Cluster, when non-nil, joins this daemon to a multi-node cluster
	// (internal/cluster): submissions route to each digest's owner,
	// results replicate by verified peer-fetch read-through, any node
	// answers for any job, and a dead node's journaled jobs are re-enqueued
	// on survivors exactly once.
	Cluster *ClusterConfig
}

// ClusterConfig is the serve-level cluster knob set; see cluster.Config
// for the semantics of each field.
type ClusterConfig struct {
	Self      string         // this node's ID; must appear in Nodes
	Nodes     []cluster.Node // full membership, including Self
	Heartbeat time.Duration  // beat interval (default 1s)
	DeadAfter int            // missed beats before a peer is dead (default 3)
}

// Server is the sgxd daemon: a thin HTTP transport wiring the admission
// layer (frontdoor), the scheduler (sched), and the result tier
// (resultier + store) together. All protocol logic lives in those layers;
// the server maps requests in and statuses/rejections out.
type Server struct {
	store    *store.Store    // raw disk tier
	cache    *resultier.Tier // nil when CacheBytes == 0 and not clustered
	sched    *sched.Scheduler
	door     *frontdoor.Door
	cluster  *cluster.Cluster // nil outside cluster mode
	faults   *faultline.Injector
	log      *log.Logger
	metrics  *telemetry.Registry
	mux      *http.ServeMux
	ready    atomic.Bool
	draining atomic.Bool

	defaultEPC uint64 // Config.DefaultEPCBytes, applied at submission
}

// New builds a server; call Handler for its API and Shutdown to drain.
// When cfg.Journal is set, the scheduler replays it before accepting
// traffic: jobs that were pending when the previous process died are
// re-enqueued under their original IDs, quarantined jobs are restored
// parked.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	metrics := telemetry.NewRegistry()
	cfg.Store.SetFaults(cfg.Faults)
	cfg.Store.SetHooks(cfg.Hooks)

	// Result tier: the scheduler reads and writes through the LRU when one
	// is configured, the raw store otherwise. Cluster mode always builds
	// the tier (a zero byte budget makes it a passthrough) because the
	// peer-fetch read-through hangs below it. The cache counters are
	// registered either way so /metrics always exposes the vocabulary.
	var results sched.ResultStore = cfg.Store
	var cache *resultier.Tier
	if cfg.CacheBytes > 0 || cfg.Cluster != nil {
		cache = resultier.New(cfg.Store, cfg.CacheBytes, metrics)
		results = cache
	} else {
		for _, name := range []string{"cache.hits", "cache.misses", "cache.evictions", "cache.inserts"} {
			metrics.Counter(name)
		}
	}

	// Cluster nodes namespace their job IDs ("n2-j000017"): the ID names
	// the node that holds the job, so any node can resolve it (jobFor), and
	// two nodes can never mint the same ID.
	idPrefix := ""
	if cfg.Cluster != nil {
		idPrefix = cfg.Cluster.Self + "-"
	}
	sc, err := sched.New(sched.Config{
		Store:           results,
		Workers:         cfg.Workers,
		Backlog:         cfg.Backlog,
		Parallel:        cfg.Parallel,
		Log:             cfg.Log,
		Metrics:         metrics,
		Journal:         cfg.Journal,
		Faults:          cfg.Faults,
		MaxAttempts:     cfg.MaxAttempts,
		RetryBase:       cfg.RetryBase,
		RetryCap:        cfg.RetryCap,
		DefaultDeadline: cfg.DefaultDeadline,
		Hooks:           cfg.Hooks,
		Compute:         cfg.Compute,
		Manual:          cfg.Manual,
		IDPrefix:        idPrefix,
	})
	if err != nil {
		return nil, err
	}

	s := &Server{
		store:      cfg.Store,
		cache:      cache,
		sched:      sc,
		faults:     cfg.Faults,
		log:        cfg.Log,
		metrics:    metrics,
		defaultEPC: cfg.DefaultEPCBytes,
	}
	doorCfg := frontdoor.Config{
		Backend:           sc,
		TenantRPS:         cfg.TenantRPS,
		TenantBurst:       cfg.TenantBurst,
		TenantMaxInFlight: cfg.TenantMaxInFlight,
		RetryAfter:        cfg.RetryAfter,
		Metrics:           metrics,
	}
	if cfg.Cluster != nil {
		cl, err := cluster.New(cluster.Config{
			Self:      cfg.Cluster.Self,
			Nodes:     cfg.Cluster.Nodes,
			Heartbeat: cfg.Cluster.Heartbeat,
			DeadAfter: cfg.Cluster.DeadAfter,
			Local:     clusterLocal{s},
			Store:     cfg.Store,
			Metrics:   metrics,
			Faults:    cfg.Faults,
			Log:       cfg.Log,
		})
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		cache.SetPeerFetch(cl.FetchResult)
		doorCfg.Router = cl
	}
	s.door = frontdoor.New(doorCfg)
	s.mux = http.NewServeMux()
	s.routes()
	s.ready.Store(true)
	if s.cluster != nil {
		s.cluster.Start()
	}
	return s, nil
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain closes the front door: every subsequent submission is
// rejected with 503 and /readyz reports not-ready, from this instant —
// not merely once the listener closes. The daemon calls it on SIGTERM
// before draining in-flight work.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.door.BeginDrain()
}

// Shutdown closes admission (see BeginDrain), stops cluster traffic,
// drains the scheduler, then closes the journal.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if s.cluster != nil {
		s.cluster.Stop()
	}
	return s.sched.Shutdown(ctx)
}

// Admit routes one submission through the admission layer: validation,
// tenant rate limits and quotas, backpressure, and single-flight
// coalescing (coalesced=true means the returned job is shared with an
// identical in-flight submission). This is the path POST /api/v1/jobs
// takes; Submit bypasses admission entirely.
func (s *Server) Admit(tenant string, req SubmitRequest) (j *sched.Job, coalesced bool, err error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.applyDefaults(&req)
	return s.door.Admit(tenant, req)
}

// Submit validates and enqueues a job directly on the scheduler — no
// coalescing, no quotas. In-process tests, cmd tooling, and protocheck
// (whose duplicate-submit program needs two identical submissions to stay
// two jobs) use it; HTTP traffic goes through Admit.
func (s *Server) Submit(req SubmitRequest) (*sched.Job, error) {
	s.applyDefaults(&req)
	return s.sched.Submit(req)
}

// applyDefaults resolves server-side submission defaults onto the request
// before it reaches admission or the scheduler, so the journaled request —
// and therefore replay, compaction, and cluster forwarding — carries the
// resolved values.
func (s *Server) applyDefaults(req *SubmitRequest) {
	if req.EPCBytes == 0 {
		req.EPCBytes = s.defaultEPC
	}
}

// RunNext executes one queued job synchronously on the caller's goroutine,
// returning false when nothing is queued. This is the drive for Manual
// servers (protocheck's deterministic scheduler); with a live worker pool
// it is safe but redundant.
func (s *Server) RunNext() bool { return s.sched.RunNext() }

// Status returns the wire status of one job.
func (s *Server) Status(id string) (JobStatus, bool) { return s.sched.Status(id) }

// List returns every job's status in submission order.
func (s *Server) List() []JobStatus { return s.sched.List() }

// Result returns a job's result bundle, if it finished with one.
func (s *Server) Result(id string) (*ResultBundle, bool) { return s.sched.Result(id) }

// Cancel requests cancellation of a job; false means no such job. Like
// DELETE /api/v1/jobs/{id}, cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) bool { return s.sched.Cancel(id) }

// Quarantine returns the parked jobs awaiting operator action, in
// submission order (released jobs drop off: their RequeuedAs points at the
// replacement).
func (s *Server) Quarantine() []JobStatus { return s.sched.Quarantine() }

// Requeue releases a quarantined job by resubmitting its request as a
// fresh job; see sched.Scheduler.Requeue.
func (s *Server) Requeue(id string) (old, fresh JobStatus, err error) { return s.sched.Requeue(id) }

// Abort closes the journal without draining the queue — the in-process
// equivalent of the machine losing power. Only protocheck's crash
// simulation calls it; everything else shuts down via Shutdown.
func (s *Server) Abort() error {
	if s.cluster != nil {
		s.cluster.Stop()
	}
	return s.sched.Abort()
}

// ---- cluster glue ----

// clusterLocal adapts the server into the cluster layer's view of its own
// node (cluster.Local): submissions land through the admission layer so
// recovered and handed-off jobs coalesce with (and are quota-accounted
// like) everything else.
type clusterLocal struct{ s *Server }

func (l clusterLocal) Admit(tenant string, req SubmitRequest, recoveredFrom string) (sched.JobStatus, error) {
	j, coalesced, err := l.s.Admit(tenant, req)
	if err != nil {
		return sched.JobStatus{}, err
	}
	markRecovered(j, coalesced, recoveredFrom)
	return l.s.statusOf(j), nil
}

// markRecovered annotates a job that adopts a dead peer's journaled work.
// A coalesced follower attached to someone else's job; marking that job
// as an adoption would miscount recoveries.
func markRecovered(j *sched.Job, coalesced bool, recoveredFrom string) {
	if recoveredFrom != "" && !coalesced {
		j.SetRecoveredFrom(recoveredFrom)
	}
}

func (l clusterLocal) Depth() (int, int)                    { return l.s.sched.Depth() }
func (l clusterLocal) Unsettled(max int) []sched.PendingJob { return l.s.sched.Unsettled(max) }
func (l clusterLocal) Queued(max int) []sched.PendingJob    { return l.s.sched.Queued(max) }
func (l clusterLocal) Cancel(id string) bool                { return l.s.sched.Cancel(id) }
func (l clusterLocal) BeginDrain()                          { l.s.BeginDrain() }

// Quarantined is the heartbeat's parked-job digest, node-stamped so the
// fleet-wide aggregation can say where each poison job lives.
func (l clusterLocal) Quarantined(max int) []sched.JobStatus {
	all := l.s.sched.Quarantine()
	if max > 0 && len(all) > max {
		all = all[:max]
	}
	for i := range all {
		l.s.stampNode(&all[i])
	}
	return all
}

// HasLocal is the router's "serve it here" probe: memory first (no IO),
// then a meta-only disk stat. Version-pinned to the running simulator, so
// a stale entry never short-circuits routing.
func (l clusterLocal) HasLocal(key string) bool {
	if l.s.cache != nil && l.s.cache.Contains(key, bench.SimVersion) {
		return true
	}
	meta, ok := l.s.store.Stat(key)
	return ok && meta.Key == key && meta.Version == bench.SimVersion
}

// stampNode marks a locally-owned job status with this node's ID (cluster
// mode only; single-node responses are unchanged).
func (s *Server) stampNode(st *JobStatus) {
	if s.cluster != nil {
		st.Node = s.cluster.Self()
	}
}

// statusOf is a local job's node-stamped wire status.
func (s *Server) statusOf(j *sched.Job) JobStatus {
	st := j.Status()
	s.stampNode(&st)
	return st
}

// ---- HTTP layer ----

func (s *Server) routes() {
	// Liveness: the process is up and serving HTTP. Never consults state —
	// a wedged queue must not make the liveness probe restart-loop us
	// while /readyz correctly reports not-ready.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /api/v1/quarantine", s.handleQuarantine)
	s.mux.HandleFunc("POST /api/v1/quarantine/{id}/requeue", s.handleRequeue)
	s.mux.HandleFunc("GET /api/v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ListExperiments())
	})
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("POST /api/v1/gc", s.handleGC)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The cluster mounts its own peer endpoints; a single-node daemon
	// answers every one of them 404.
	if s.cluster != nil {
		s.cluster.Register(s.mux)
	} else {
		s.mux.HandleFunc("/api/v1/cluster/", func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound, "cluster mode disabled (start sgxd with -peers)")
		})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit is the admitted path: tenant accounting, rate limits,
// coalescing, and backpressure all happen in the front door; this handler
// only translates its verdicts onto the wire. 429-class rejections carry
// Retry-After so well-behaved clients pace themselves.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, cluster.MaxSubmitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	tenant := r.Header.Get(TenantHeader)
	// Route-or-serve: in cluster mode the digest's owner computes it
	// (unless we already hold the result). A submission a peer forwarded
	// here is admitted without routing: one hop is the protocol. The
	// owner's 4xx is final and goes back to the client as it came. An owner
	// that cannot take the job gets one re-route against the current
	// membership epoch (the ring may have moved while the forward was in
	// flight), then the job is admitted here — a reachable node never
	// refuses work because the owner is down.
	forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
	if s.cluster != nil && !forwarded {
		if node, local := s.door.Route(req); !local {
			st, coalesced, err := s.cluster.ForwardRetry(node, tenant, req, "")
			var rej *cluster.Rejection
			switch {
			case err == nil:
				writeSubmitted(w, st, coalesced)
				return
			case errors.As(err, &rej):
				if rej.RetryAfter != "" {
					w.Header().Set("Retry-After", rej.RetryAfter)
				}
				writeError(w, rej.Code, "%s", rej.Message)
				return
			}
		}
	}
	j, coalesced, err := s.Admit(tenant, req)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	if forwarded {
		markRecovered(j, coalesced, r.Header.Get(cluster.RecoveredHeader))
	}
	writeSubmitted(w, s.statusOf(j), coalesced)
}

// writeSubmitted answers an accepted submission with 201 and the job's
// status, flagging a coalesced follower with CoalescedHeader.
func writeSubmitted(w http.ResponseWriter, st JobStatus, coalesced bool) {
	if coalesced {
		w.Header().Set(CoalescedHeader, "true")
	}
	writeJSON(w, http.StatusCreated, st)
}

// writeAdmitError maps the front door's rejection sentinels onto status
// codes.
func (s *Server) writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, frontdoor.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, frontdoor.ErrRateLimited),
		errors.Is(err, frontdoor.ErrQuotaExceeded),
		errors.Is(err, frontdoor.ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.door.RetryAfter())))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// retryAfterSeconds renders a pause as a whole-second Retry-After value,
// rounding up so "1ms" never becomes "retry immediately".
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	all := s.List()
	for i := range all {
		s.stampNode(&all[i])
	}
	writeJSON(w, http.StatusOK, all)
}

// jobFor resolves {id} to a local job. In cluster mode, an ID minted by
// another member is proxied to that member instead (the response is then
// already written).
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*sched.Job, bool) {
	id := r.PathValue("id")
	if j, ok := s.sched.Get(id); ok {
		return j, true
	}
	if !s.proxied(w, r, id) {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return nil, false
}

// proxied forwards the request to the member holding job id, and reports
// whether it did (the response is then written). The ID names its holder:
// New prefixes every cluster job ID with "<nodeID>-", and node IDs may
// themselves contain '-', so the node is the text before the last '-'.
func (s *Server) proxied(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.cluster == nil {
		return false
	}
	i := strings.LastIndexByte(id, '-')
	if i <= 0 {
		return false
	}
	node := id[:i]
	if node == s.cluster.Self() || !s.cluster.IsMember(node) {
		return false
	}
	s.cluster.ProxyJob(w, r, node)
	return true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, s.statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", st.ID, st.State)
		return
	}
	bundle, ok := j.Bundle()
	if !ok {
		writeError(w, http.StatusGone, "job %s %s: %s", st.ID, st.State, st.Error)
		return
	}
	if name := r.URL.Query().Get("csv"); name != "" {
		csv, ok := bundle.CSV[name]
		if !ok {
			names := make([]string, 0, len(bundle.CSV))
			for n := range bundle.CSV {
				names = append(names, n)
			}
			sort.Strings(names)
			writeError(w, http.StatusNotFound, "job %s has no CSV %q (have %v)", st.ID, name, names)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, csv)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, bundle.Output)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	from := 0
	for {
		lines, done, changed := j.Progress().Snapshot(from)
		for _, line := range lines {
			fmt.Fprintln(w, line)
		}
		from += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; profile not ready", st.ID, st.State)
		return
	}
	profile, ok := j.Profile()
	if !ok {
		writeError(w, http.StatusNotFound, "job %s ran no cells (served from store)", st.ID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	profile.WriteJSON(w)
}

// handleGC collects store entries from dead simulator generations, then
// flushes the memory tier: a collected key must not outlive its disk copy
// in RAM.
func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	removed, err := s.store.GC(bench.SimVersion)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "gc: %v", err)
		return
	}
	if s.cache != nil {
		s.cache.Flush()
	}
	stats, _ := s.store.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"removed": removed,
		"stats":   stats,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, "sgxd.", s.metrics.Snapshot())
	if stats, err := s.store.Stats(); err == nil {
		fmt.Fprintf(w, "# TYPE sgxd_store_entries gauge\nsgxd_store_entries %d\n", stats.Entries)
		fmt.Fprintf(w, "# TYPE sgxd_store_body_bytes gauge\nsgxd_store_body_bytes %d\n", stats.BodyBytes)
	}
	if s.cache != nil {
		entries, bytes := s.cache.Stats()
		fmt.Fprintf(w, "# TYPE sgxd_cache_entries gauge\nsgxd_cache_entries %d\n", entries)
		fmt.Fprintf(w, "# TYPE sgxd_cache_bytes gauge\nsgxd_cache_bytes %d\n", bytes)
	}
	fmt.Fprintf(w, "# TYPE sgxd_quarantined_jobs gauge\nsgxd_quarantined_jobs %d\n", len(s.Quarantine()))
	fmt.Fprintf(w, "# TYPE sgxd_faults_injected_total counter\nsgxd_faults_injected_total %d\n", s.faults.Total())
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Quarantine())
}

// handleRequeue is the HTTP face of Requeue, mapping its sentinels onto
// status codes. Like every job route, it proxies an ID that names another
// member, so a parked job is released from any node.
func (s *Server) handleRequeue(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.proxied(w, r, id) {
		return
	}
	old, fresh, err := s.Requeue(id)
	switch {
	case errors.Is(err, ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", id)
	case errors.Is(err, ErrNotQuarantined), errors.Is(err, ErrAlreadyRequeued):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrBacklogFull), errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]JobStatus{
			"quarantined": old,
			"requeued":    fresh,
		})
	}
}

// JoinCluster announces this node to a running fleet via the seed node's
// join endpoint (sgxd -join). Outside cluster mode it is an error.
func (s *Server) JoinCluster(seed string) error {
	if s.cluster == nil {
		return errors.New("serve: not in cluster mode (set Config.Cluster)")
	}
	return s.cluster.Join(seed)
}

// handleReady is the readiness probe: journal replay finished, the store
// accepts writes, the queue accepts submissions, and drain has not begun.
// CI and orchestration gate traffic on this instead of sleeping; the
// admission layer rejects with 503 in lockstep with it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready bool   `json:"ready"`
		Store string `json:"store,omitempty"`
		Queue string `json:"queue,omitempty"`
	}
	rd := readiness{Ready: true}
	if !s.ready.Load() {
		rd.Ready = false
		rd.Queue = "replaying journal"
	}
	if err := s.store.Writable(); err != nil {
		rd.Ready = false
		rd.Store = err.Error()
	}
	if s.draining.Load() || !s.sched.Accepting() {
		rd.Ready = false
		rd.Queue = "shutting down"
	}
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}
