// Package frontdoor is sgxd's admission layer: everything that decides
// whether a submission deserves a worker before the scheduler ever sees
// it. It validates and canonicalizes submits, coalesces identical
// concurrent work onto one computation (single-flight on the job's
// content address), enforces per-tenant rate limits and in-flight
// quotas, and converts queue saturation into explicit backpressure
// instead of unbounded accept.
//
// The layer is deliberately transport-free: it speaks SubmitRequest in
// and (*sched.Job, typed rejection) out. The HTTP server maps the
// rejections onto status codes (ErrDraining → 503, everything else →
// 429 + Retry-After). The door does admission only: in a cluster,
// internal/cluster decides which node a submission runs on, admission
// runs on that node, and a forwarding node relays the owner's 429 to its
// client unchanged.
package frontdoor

import (
	"errors"
	"sync"
	"time"

	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/telemetry"
)

// Rejection sentinels. Everything except ErrDraining means "try again
// later" (429 + Retry-After on the wire); ErrDraining means this process
// is going away (503, aligned with /readyz).
var (
	// ErrDraining rejects submissions once drain has begun — from the very
	// first instant, not merely once the listener closes.
	ErrDraining = errors.New("frontdoor: draining, not accepting jobs")
	// ErrRateLimited rejects a tenant that exceeded its sustained
	// submission rate (token bucket empty).
	ErrRateLimited = errors.New("frontdoor: tenant rate limit exceeded")
	// ErrQuotaExceeded rejects a tenant with too many jobs in flight.
	ErrQuotaExceeded = errors.New("frontdoor: tenant in-flight quota exceeded")
	// ErrSaturated rejects when the scheduler backlog is full — the
	// backpressure signal that keeps a thundering herd from piling into
	// unbounded memory.
	ErrSaturated = errors.New("frontdoor: job backlog saturated")
)

// Backend is the slice of the scheduler the front door drives. It is an
// interface so admission tests run against a stub; *sched.Scheduler
// satisfies it.
type Backend interface {
	Submit(req sched.SubmitRequest) (*sched.Job, error)
	Accepting() bool
}

// Config parameterises a Door.
type Config struct {
	Backend Backend // required

	// TenantRPS and TenantBurst shape each tenant's token bucket:
	// sustained submissions per second and the burst allowance. RPS <= 0
	// disables rate limiting.
	TenantRPS   float64
	TenantBurst int
	// TenantMaxInFlight bounds each tenant's concurrently active
	// (non-terminal, non-coalesced) jobs. <= 0 disables the quota.
	// Coalesced followers are free: they consume no compute. So are store
	// hits once admitted: their slot is released before Admit returns,
	// though a tenant already at its quota is refused before the store is
	// read.
	TenantMaxInFlight int
	// RetryAfter is the pause the door advertises with 429-class
	// rejections (default 1s).
	RetryAfter time.Duration

	// Metrics receives the admission counters ("admitted", "coalesced",
	// "rejected", and per-cause "rejected.*"); nil allocates a private
	// registry.
	Metrics *telemetry.Registry

	// Now overrides the clock for rate-limit tests. Nil means time.Now.
	Now func() time.Time
}

// tenant is one tenant's admission state.
type tenant struct {
	tokens   float64
	last     time.Time
	inFlight int
}

// Door is the admission layer instance.
type Door struct {
	backend    Backend
	rps        float64
	burst      float64
	maxFlight  int
	retryAfter time.Duration
	now        func() time.Time

	admitted, coalesced, rejected *telemetry.Counter
	rejDrain, rejRate, rejQuota   *telemetry.Counter
	rejFull                       *telemetry.Counter

	mu       sync.Mutex
	draining bool
	tenants  map[string]*tenant
	flights  map[string]*sched.Job // store key -> in-flight (or just-done) job
}

// New builds a Door over cfg.Backend.
func New(cfg Config) *Door {
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	burst := float64(cfg.TenantBurst)
	if burst < 1 {
		burst = 1
	}
	return &Door{
		backend:    cfg.Backend,
		rps:        cfg.TenantRPS,
		burst:      burst,
		maxFlight:  cfg.TenantMaxInFlight,
		retryAfter: cfg.RetryAfter,
		now:        cfg.Now,
		admitted:   cfg.Metrics.Counter("admitted"),
		coalesced:  cfg.Metrics.Counter("coalesced"),
		rejected:   cfg.Metrics.Counter("rejected"),
		rejDrain:   cfg.Metrics.Counter("rejected.drain"),
		rejRate:    cfg.Metrics.Counter("rejected.rate"),
		rejQuota:   cfg.Metrics.Counter("rejected.quota"),
		rejFull:    cfg.Metrics.Counter("rejected.saturated"),
		tenants:    make(map[string]*tenant),
		flights:    make(map[string]*sched.Job),
	}
}

// RetryAfter is the pause advertised alongside 429-class rejections.
func (d *Door) RetryAfter() time.Duration { return d.retryAfter }

// BeginDrain flips the door closed: every subsequent Admit fails with
// ErrDraining immediately, before the listener or the scheduler wind
// down. Aligned with /readyz going 503.
func (d *Door) BeginDrain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
}

// Admit validates req and either attaches it to an identical in-flight
// computation (coalesced=true: the returned job is shared, already
// running on someone else's submission) or admits it as a fresh job.
// Rejections come back as the package's sentinel errors; validation
// failures come back verbatim (the transport maps them to 400).
func (d *Door) Admit(tenantID string, req sched.SubmitRequest) (j *sched.Job, coalesced bool, err error) {
	// Validate before charging anyone's bucket: malformed requests are the
	// client's bug, not load.
	if err := req.Job().Validate(); err != nil {
		return nil, false, err
	}
	key := req.StoreKey()

	d.mu.Lock()
	defer d.mu.Unlock()

	if d.draining || !d.backend.Accepting() {
		d.reject(d.rejDrain)
		return nil, false, ErrDraining
	}
	if err := d.charge(tenantID); err != nil {
		return nil, false, err
	}

	// Single-flight: identical concurrent submissions (same content
	// address) share one computation. Force opts out — it exists to
	// recompute. Terminal leaders are never attached to: a finished one is
	// already in the result tier (the fresh submission takes the ordinary
	// warm-hit path, keeping FromStore semantics), and a failed or
	// cancelled one must not hand its verdict to followers that never
	// caused it.
	if !req.Force {
		if f, ok := d.flights[key]; ok {
			if !f.Status().State.Terminal() {
				d.coalesced.Inc()
				return f, true, nil
			}
			delete(d.flights, key)
		}
	}

	// Leader path: this submission pays for the computation. The quota
	// slot is held until the job reaches a terminal state.
	if d.maxFlight > 0 {
		tn := d.tenant(tenantID)
		if tn.inFlight >= d.maxFlight {
			d.reject(d.rejQuota)
			return nil, false, ErrQuotaExceeded
		}
		tn.inFlight++
	}

	j, err = d.backend.Submit(req)
	if err != nil {
		d.release(tenantID)
		switch {
		case errors.Is(err, sched.ErrBacklogFull):
			d.reject(d.rejFull)
			return nil, false, ErrSaturated
		case errors.Is(err, sched.ErrShuttingDown):
			d.reject(d.rejDrain)
			return nil, false, ErrDraining
		}
		return nil, false, err
	}
	d.admitted.Inc()
	if j.Status().State.Terminal() {
		// Settled already — a store hit, or a job failed at admission:
		// nothing will run, so there is nothing to coalesce onto and no
		// compute to hold a quota slot for.
		d.release(tenantID)
		return j, false, nil
	}
	if !req.Force {
		d.flights[key] = j
	}
	// The watcher releases the flight entry and the quota slot when the
	// job settles. Waiting on Done (not polling) keeps manual-mode
	// schedulers deterministic: the goroutine only runs after a terminal
	// transition.
	go d.watch(tenantID, key, req.Force, j)
	return j, false, nil
}

// watch runs once per admitted leader job that did not come back settled.
func (d *Door) watch(tenantID, key string, force bool, j *sched.Job) {
	<-j.Done()
	d.mu.Lock()
	if !force && d.flights[key] == j {
		delete(d.flights, key)
	}
	d.release(tenantID)
	d.mu.Unlock()
}

// release frees one of the tenant's in-flight slots (caller holds d.mu).
func (d *Door) release(tenantID string) {
	if d.maxFlight > 0 {
		if tn, ok := d.tenants[tenantID]; ok && tn.inFlight > 0 {
			tn.inFlight--
		}
	}
}

// charge spends one token from the tenant's bucket (caller holds d.mu).
func (d *Door) charge(tenantID string) error {
	if d.rps <= 0 {
		return nil
	}
	tn := d.tenant(tenantID)
	now := d.now()
	if !tn.last.IsZero() {
		tn.tokens += now.Sub(tn.last).Seconds() * d.rps
	} else {
		tn.tokens = d.burst
	}
	if tn.tokens > d.burst {
		tn.tokens = d.burst
	}
	tn.last = now
	if tn.tokens < 1 {
		d.reject(d.rejRate)
		return ErrRateLimited
	}
	tn.tokens--
	return nil
}

// tenant returns (allocating if needed) tenantID's state (caller holds
// d.mu).
func (d *Door) tenant(id string) *tenant {
	tn, ok := d.tenants[id]
	if !ok {
		tn = &tenant{}
		d.tenants[id] = tn
	}
	return tn
}

func (d *Door) reject(cause *telemetry.Counter) {
	d.rejected.Inc()
	cause.Inc()
}
