// Package cluster turns N independent sgxd daemons into one sharded,
// self-healing service. The design leans entirely on the content-addressed
// result store: a job's digest (canonical spec + bench.SimVersion) names
// its result everywhere, so any node's bytes are every node's bytes once
// verified — replication is read-through, never consensus.
//
// Five mechanisms, all over the existing HTTP transport. The package owns
// both ends of that transport: it sends every peer request, and Register
// mounts the endpoints that answer them.
//
//   - Membership + liveness: an epoch-versioned membership view, seeded
//     from the boot node list and gossiped on periodic heartbeats that
//     also piggyback queue depth, the sender's unsettled jobs, and its
//     quarantine digest. A higher epoch wins; epoch ties break on the
//     view digest, so concurrent changes converge without coordination.
//     Nodes join a running fleet (POST /api/v1/cluster/join) and leave it
//     gracefully (ring-excluded drain, queue handoff, then departure)
//     without any restarts. A node silent past the dead-after window is
//     dead. This is the one liveness signal: a peer leaves the ring, the
//     fetch candidates and the re-replication targets only when heartbeats
//     declare it dead, and a failed call to a live peer costs that call
//     alone.
//   - Placement: job digests consistent-hash onto live nodes (bounded-load
//     variant — a node whose queue exceeds its fair share spills to the
//     next ring node, so hot shards spread). The ring is rebuilt
//     atomically on every epoch change; an in-flight forward that loses
//     the race re-routes once against the new epoch before falling back
//     to local compute. An owner's 4xx (backpressure, quota) is final: the
//     forwarding node relays it instead of admitting the job itself.
//   - Peer-fetch read-through: a local result miss consults live peers
//     before computing, owner first. Peer bytes are re-verified (key,
//     SimVersion, size, sha256) on arrival; corrupt bytes count, log, and
//     fall through — they never reach a cache tier or a client.
//   - Re-replication: on every epoch change each node scans its store
//     manifest and pushes verified copies of results it no longer owns to
//     the new owner (rate-limited, resumable; see rebalance.go), so a
//     later owner-local read is a disk hit instead of a cross-node fetch.
//   - Recovery and handoff: when a node dies, exactly one survivor (its
//     successor among the living) re-enqueues the dead node's piggybacked
//     unsettled jobs, at most once per job per boot incarnation; a leaving
//     node hands its still-queued jobs to their new owners. Both move
//     pending work through one path, routeSubmit.
//
// Fault sites (internal/faultline): "cluster.peer.fetch" fails the peer
// read-through, bitflip on "cluster.peer.body" corrupts received result
// bytes, and "cluster.peer.replicate" fails the push of one re-replicated
// result.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// maxPiggyback bounds the unsettled-job set carried per heartbeat; a node
// with more pending work than this recovers the overflow from its own
// journal when it restarts, as before clustering.
const maxPiggyback = 256

// maxQuarantineDigest bounds the quarantined-job digest carried per
// heartbeat for fleet-wide quarantine visibility.
const maxQuarantineDigest = 64

// Local is the slice of the serving stack the cluster drives on its own
// node. internal/serve implements it over the admission layer and the
// scheduler; tests implement it directly.
type Local interface {
	// Admit submits through the node's own admission layer (validation,
	// quotas, coalescing). recoveredFrom, when non-empty, annotates the
	// job as the adoption of a dead peer's journaled work.
	Admit(tenant string, req sched.SubmitRequest, recoveredFrom string) (sched.JobStatus, error)
	// Depth reports the scheduler backlog occupancy.
	Depth() (queued, capacity int)
	// Unsettled lists queued/running jobs — the journal-replayable set a
	// heartbeat piggybacks for dead-node recovery.
	Unsettled(max int) []sched.PendingJob
	// Queued lists jobs still queued (no worker picked them up yet) — the
	// set a leaving node hands off.
	Queued(max int) []sched.PendingJob
	// HasLocal reports whether this node already holds a verified result
	// for key (memory or disk) — the serve-local shortcut in routing.
	HasLocal(key string) bool
	// Cancel cancels one local job by ID; a leaving node cancels each
	// queued job it successfully handed off to the new owner.
	Cancel(id string) bool
	// BeginDrain closes the node's admission layer; a leaving node calls
	// it the moment its ring-excluded epoch is gossiped.
	BeginDrain()
	// Quarantined lists the node's parked poison jobs — the digest the
	// heartbeats carry for fleet-wide quarantine visibility.
	Quarantined(max int) []sched.JobStatus
}

// Config parameterises a Cluster.
type Config struct {
	Self  string // this node's ID; must appear in Nodes
	Nodes []Node // boot membership, including Self (may be Self alone before a join)

	// Heartbeat is the beat interval (default 1s); liveness, recovery
	// checks, and re-replication all run on its ticker.
	Heartbeat time.Duration
	// DeadAfter is how many missed beat intervals declare a peer dead
	// (default 3).
	DeadAfter int

	Local Local
	// Store is the node's raw disk tier, never the read-through above it:
	// peers are served from it (so two nodes missing a digest cannot chase
	// each other), pushed results land in it, and re-replication scans it.
	Store   *store.Store
	Metrics *telemetry.Registry
	Faults  *faultline.Injector
	Log     *log.Logger
}

// peerState is everything we know about one remote member.
type peerState struct {
	node       Node
	lastSeen   time.Time
	alive      bool
	nonce      string // boot incarnation from its last beat
	queued     int
	pending    []sched.PendingJob
	quarantine []sched.JobStatus
}

// Cluster is one node's view of the cluster.
type Cluster struct {
	self      Node
	interval  time.Duration
	deadAfter time.Duration
	local     Local
	store     *store.Store
	client    *http.Client
	faults    *faultline.Injector
	log       *log.Logger
	nonce     string

	// peer_fetches and rereplicated sit at the registry top level so the
	// exposition names are exactly sgxd_peer_fetches_total and
	// sgxd_rereplicated_total; the rest live under cluster.*.
	peerFetches, rereplicated, peerCorrupt      *telemetry.Counter
	beatsSent, beatsRecv, deaths, jobsRecovered *telemetry.Counter
	forwarded, forwardFallback, epochChanges    *telemetry.Counter
	joins                                       *telemetry.Counter

	mu       sync.Mutex
	view     View
	ring     *ring
	peers    map[string]*peerState
	adopted  map[string]bool // "deadID@nonce/jobID" → re-enqueued
	rebal    *rebalanceScan  // in-progress re-replication scan (nil = idle)
	leaving  bool            // ring-excluded drain in progress
	departed bool            // graceful leave completed

	stop     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
	started  bool
}

// New builds a Cluster; call Start to begin heartbeating.
func New(cfg Config) (*Cluster, error) {
	if cfg.Local == nil {
		return nil, errors.New("cluster: Config.Local is required")
	}
	if cfg.Store == nil {
		return nil, errors.New("cluster: Config.Store is required")
	}
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: Config.Nodes is empty")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}

	view := viewOf(cfg.Nodes)
	var self *Node
	peers := make(map[string]*peerState, len(cfg.Nodes)-1)
	for i := range cfg.Nodes {
		n := cfg.Nodes[i]
		if n.ID == cfg.Self {
			self = &cfg.Nodes[i]
		} else {
			peers[n.ID] = &peerState{node: n}
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: self %q is not in the node list", cfg.Self)
	}

	nonce := make([]byte, 8)
	rand.Read(nonce)
	c := &Cluster{
		self:      *self,
		interval:  cfg.Heartbeat,
		deadAfter: time.Duration(cfg.DeadAfter) * cfg.Heartbeat,
		local:     cfg.Local,
		store:     cfg.Store,
		client:    defaultClient(),
		faults:    cfg.Faults,
		log:       cfg.Log,
		nonce:     hex.EncodeToString(nonce),

		peerFetches:     cfg.Metrics.Counter("peer_fetches"),
		rereplicated:    cfg.Metrics.Counter("rereplicated"),
		peerCorrupt:     cfg.Metrics.Counter("cluster.peer_corrupt"),
		beatsSent:       cfg.Metrics.Counter("cluster.heartbeats_sent"),
		beatsRecv:       cfg.Metrics.Counter("cluster.heartbeats_recv"),
		deaths:          cfg.Metrics.Counter("cluster.node_deaths"),
		jobsRecovered:   cfg.Metrics.Counter("cluster.jobs_recovered"),
		forwarded:       cfg.Metrics.Counter("cluster.forwarded"),
		forwardFallback: cfg.Metrics.Counter("cluster.forward_fallback"),
		epochChanges:    cfg.Metrics.Counter("cluster.epoch_changes"),
		joins:           cfg.Metrics.Counter("cluster.joins"),

		view:     view,
		ring:     newRing(view.ringIDs()),
		peers:    peers,
		adopted:  make(map[string]bool),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	return c, nil
}

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.self.ID }

// Epoch returns the membership epoch this node currently operates under.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Epoch
}

// Departed reports whether this node has completed a graceful leave.
func (c *Cluster) Departed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.departed
}

// Start launches the heartbeat/recovery/re-replication loop. Every peer
// gets a full dead-after grace window from this instant, so a cluster
// booting node by node does not declare the stragglers dead on tick one.
func (c *Cluster) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	now := time.Now()
	for _, ps := range c.peers {
		ps.lastSeen = now
		ps.alive = true
	}
	c.mu.Unlock()
	go c.loop()
}

// Stop halts the loop; idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.loopDone
	}
}

func (c *Cluster) loop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.beatOnce()
			c.reapAndRecover()
			c.rebalanceOnce()
		}
	}
}

// selfBeat snapshots this node's wire-visible state, membership view
// included — the view is how epochs gossip.
func (c *Cluster) selfBeat() Beat {
	queued, _ := c.local.Depth()
	c.mu.Lock()
	view := c.view.clone()
	c.mu.Unlock()
	return Beat{
		From:       c.self.ID,
		Nonce:      c.nonce,
		Queued:     queued,
		Pending:    c.local.Unsettled(maxPiggyback),
		Quarantine: c.local.Quarantined(maxQuarantineDigest),
		View:       view,
		Unix:       time.Now().Unix(),
	}
}

// beatOnce sends one heartbeat to every peer. The answering beat carries
// the peer's own state, so information flows both ways even when only one
// side's sends get through.
func (c *Cluster) beatOnce() {
	c.mu.Lock()
	targets := make([]Node, 0, len(c.peers))
	for _, ps := range c.peers {
		targets = append(targets, ps.node)
	}
	c.mu.Unlock()
	for _, node := range targets {
		ack, err := c.postBeat(node, c.selfBeat())
		if err != nil {
			continue // silence ages lastSeen; reap decides
		}
		c.beatsSent.Inc()
		c.observeBeat(ack)
	}
}

// receiveBeat ingests a peer's heartbeat and answers with our own (POST
// /api/v1/cluster/heartbeat).
func (c *Cluster) receiveBeat(b Beat) Beat {
	c.beatsRecv.Inc()
	c.observeBeat(b)
	return c.selfBeat()
}

func (c *Cluster) observeBeat(b Beat) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeViewLocked(b.View)
	ps, ok := c.peers[b.From]
	if !ok {
		return // not in the (merged) membership; ignore
	}
	if !ps.alive {
		c.log.Printf("cluster: node %s is back (nonce %s)", b.From, b.Nonce)
	}
	ps.lastSeen = time.Now()
	ps.alive = true
	ps.nonce = b.Nonce
	ps.queued = b.Queued
	ps.pending = b.Pending
	ps.quarantine = b.Quarantine
}

// mergeViewLocked resolves a gossiped view against the local one: the
// higher epoch wins (ties break on the view digest), and the loser of a
// concurrent change re-asserts what only it knows — its own membership,
// or its own leaving state — under the next epoch, so the fleet converges
// instead of silently dropping a node. (Caller holds c.mu.)
func (c *Cluster) mergeViewLocked(remote View) {
	winner, changed := pickView(c.view, remote)
	if !changed {
		return
	}
	if m, ok := winner.find(c.self.ID); !ok {
		if !c.leaving && !c.departed {
			winner = winner.withJoined(c.self)
		}
	} else if c.leaving && !c.departed && !m.Leaving {
		winner = winner.withLeaving(c.self.ID)
	}
	c.installViewLocked(winner)
}

// installViewLocked adopts a new membership view atomically: the ring is
// rebuilt for the epoch, the peer table gains new members (with a full
// liveness grace window) and drops departed ones, and a re-replication
// scan is scheduled. (Caller holds c.mu.)
func (c *Cluster) installViewLocked(v View) {
	old := c.view.Epoch
	c.view = v
	c.ring = newRing(v.ringIDs())
	now := time.Now()
	seen := make(map[string]bool, len(v.Members))
	for _, m := range v.Members {
		if m.ID == c.self.ID {
			continue
		}
		seen[m.ID] = true
		if ps, ok := c.peers[m.ID]; ok {
			ps.node = m.Node
		} else {
			c.peers[m.ID] = &peerState{node: m.Node, lastSeen: now, alive: true}
		}
	}
	for id := range c.peers {
		if !seen[id] {
			delete(c.peers, id)
		}
	}
	c.epochChanges.Inc()
	c.rebal = &rebalanceScan{}
	c.log.Printf("cluster: membership epoch %d installed (%d members, was epoch %d)", v.Epoch, len(v.Members), old)
}

// Join announces this node to a running fleet through seed's join
// endpoint and adopts the returned view. sgxd calls it at boot (-join); the
// operator form of POST /api/v1/cluster/join calls it too.
func (c *Cluster) Join(seed string) error {
	c.mu.Lock()
	if c.leaving || c.departed {
		c.mu.Unlock()
		return errors.New("cluster: node is leaving; cannot join")
	}
	epoch := c.view.Epoch
	c.mu.Unlock()
	v, err := c.postJoin(strings.TrimRight(seed, "/"), c.self, epoch)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.mergeViewLocked(v)
	joined := c.view.Epoch
	c.mu.Unlock()
	c.log.Printf("cluster: joined via %s at epoch %d", seed, joined)
	c.beatOnce() // gossip our arrival now instead of waiting a tick
	return nil
}

// admitJoin admits a node into the membership (the member side of a
// join). It always bumps the epoch past both sides' views — even for an
// idempotent rejoin — so the joiner's possibly-stale solo view can never
// win a digest tie against the fleet.
func (c *Cluster) admitJoin(n Node, joinerEpoch uint64) (View, error) {
	if n.ID == "" || n.Addr == "" {
		return View{}, errors.New("cluster: join needs id and addr")
	}
	addr, err := normalizeAddr(n.Addr)
	if err != nil {
		return View{}, err
	}
	n.Addr = addr
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.departed {
		return View{}, errors.New("cluster: this node has left the fleet")
	}
	if n.ID == c.self.ID {
		return View{}, fmt.Errorf("cluster: %q is this node's own ID", n.ID)
	}
	next := c.view.withJoined(n)
	if next.Epoch <= joinerEpoch {
		next.Epoch = joinerEpoch + 1
	}
	c.joins.Inc()
	c.installViewLocked(next)
	c.log.Printf("cluster: node %s (%s) joined at epoch %d", n.ID, n.Addr, next.Epoch)
	return c.view.clone(), nil
}

// Leave gracefully exits the fleet: gossip a ring-excluded (leaving)
// epoch, close local admission, hand still-queued jobs to their new
// owners, wait for running work and the re-replication scan to settle,
// then gossip a final epoch without this node and stop the loop. The
// process stays up afterwards — drained, serving reads — until the
// operator stops it.
func (c *Cluster) Leave(ctx context.Context) error {
	c.mu.Lock()
	if c.leaving || c.departed {
		c.mu.Unlock()
		return nil
	}
	c.leaving = true
	c.installViewLocked(c.view.withLeaving(c.self.ID))
	c.mu.Unlock()
	c.log.Printf("cluster: leaving — ring-excluded drain begins")
	c.beatOnce() // the fleet must stop routing to us before we drain
	c.local.BeginDrain()

	// Hand off the jobs no worker has picked up yet through the same path
	// recovery uses. Our own admission is draining, so routeSubmit can only
	// succeed by landing the job on another node; the local copy is
	// cancelled only then (a failed handoff stays local and drains).
	for _, pj := range c.local.Queued(maxPiggyback) {
		st, err := c.routeSubmit("cluster-handoff", pj.Req, "")
		if err != nil || st.Node == "" || st.Node == c.self.ID {
			c.log.Printf("cluster: handoff of %s failed (%v); draining it locally", pj.ID, err)
			continue
		}
		c.local.Cancel(pj.ID)
		c.log.Printf("cluster: handed off queued job %s to %s as %s", pj.ID, st.Node, st.ID)
	}

	// Wait for running work to settle and the re-replication scan (our
	// whole manifest, now that we own nothing) to finish pushing.
	settle := func() error {
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			if !c.Rebalancing() && len(c.local.Unsettled(1)) == 0 {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster: leave interrupted: %w", ctx.Err())
			case <-c.stop:
				return errors.New("cluster: stopped mid-leave")
			case <-t.C:
			}
		}
	}
	if err := settle(); err != nil {
		return err
	}
	// A job still running at the snapshot settles its result *after* the
	// evacuation scan read the manifest — gone with us unless pushed now.
	// The queue is drained and the ring excludes us, so nothing new can
	// land: one fresh full-manifest pass covers every late settler.
	c.mu.Lock()
	c.rebal = &rebalanceScan{}
	c.mu.Unlock()
	if err := settle(); err != nil {
		return err
	}

	c.mu.Lock()
	c.departed = true
	c.installViewLocked(c.view.without(c.self.ID))
	c.rebal = nil // departure owes the fleet nothing further
	c.mu.Unlock()
	c.beatOnce() // final gossip: the fleet drops us this epoch
	c.log.Printf("cluster: departed the fleet")
	c.Stop()
	return nil
}

// reapAndRecover declares silent peers dead and, when this node is the
// dead node's ring successor among the living, re-enqueues its
// piggybacked unsettled jobs. Adoption is tracked per (node, boot nonce,
// job ID): each job is re-enqueued at most once per incarnation, and a
// rebooted peer (fresh nonce) starts clean — its own journal replay
// already resurrected anything that mattered.
func (c *Cluster) reapAndRecover() {
	now := time.Now()
	type adoption struct {
		deadID string
		jobs   []sched.PendingJob
	}
	var adoptions []adoption

	c.mu.Lock()
	for _, ps := range c.peers {
		if ps.alive && now.Sub(ps.lastSeen) > c.deadAfter {
			ps.alive = false
			c.deaths.Inc()
			c.log.Printf("cluster: node %s declared dead (silent for %v)", ps.node.ID, now.Sub(ps.lastSeen).Round(time.Millisecond))
		}
		if ps.alive || ps.nonce == "" || len(ps.pending) == 0 {
			continue
		}
		if !c.isRecovererLocked(ps.node.ID) {
			continue
		}
		var jobs []sched.PendingJob
		for _, pj := range ps.pending {
			key := ps.node.ID + "@" + ps.nonce + "/" + pj.ID
			if !c.adopted[key] {
				jobs = append(jobs, pj)
			}
		}
		if len(jobs) > 0 {
			adoptions = append(adoptions, adoption{deadID: ps.node.ID, jobs: jobs})
		}
	}
	c.mu.Unlock()

	for _, a := range adoptions {
		c.recover(a.deadID, a.jobs)
	}
}

// isRecovererLocked reports whether this node is deadID's designated
// recoverer: its successor in sorted ID order among the currently-live
// nodes. Deterministic, so survivors with a consistent liveness view
// elect the same recoverer without coordinating. (Caller holds c.mu.)
func (c *Cluster) isRecovererLocked(deadID string) bool {
	live := []string{c.self.ID}
	for id, ps := range c.peers {
		if ps.alive {
			live = append(live, id)
		}
	}
	sort.Strings(live)
	for _, id := range live {
		if id > deadID {
			return id == c.self.ID
		}
	}
	return live[0] == c.self.ID // wrap around
}

// recover re-enqueues one dead node's jobs, routing each to its owner
// under the post-death ring (which may be this node or another survivor).
// A job is marked adopted only once its submission succeeds, so a
// transient failure retries next tick without double-enqueueing the jobs
// that made it.
func (c *Cluster) recover(deadID string, jobs []sched.PendingJob) {
	c.mu.Lock()
	nonce := ""
	if ps, ok := c.peers[deadID]; ok {
		nonce = ps.nonce
	}
	c.mu.Unlock()
	for _, pj := range jobs {
		st, err := c.routeSubmit("cluster-recovery", pj.Req, deadID)
		if err != nil {
			c.log.Printf("cluster: re-enqueue of %s (from dead %s) failed: %v", pj.ID, deadID, err)
			continue
		}
		c.mu.Lock()
		c.adopted[deadID+"@"+nonce+"/"+pj.ID] = true
		c.mu.Unlock()
		c.jobsRecovered.Inc()
		c.log.Printf("cluster: re-enqueued job %s from dead %s as %s on %s", pj.ID, deadID, st.ID, orSelf(st.Node, c.self.ID))
	}
}

func orSelf(node, self string) string {
	if node == "" {
		return self
	}
	return node
}

// Route decides placement for a content address: serve locally when this
// node owns the digest or already holds the result (and the client did
// not Force a recompute); otherwise name the owning node. Satisfies the
// frontdoor.Router seam.
func (c *Cluster) Route(key string, force bool) (node string, local bool) {
	owner := c.ownerOf(key)
	if owner == c.self.ID || owner == "" {
		return "", true
	}
	if !force && c.local.HasLocal(key) {
		return "", true
	}
	return owner, false
}

// ownerOf runs the bounded-load placement over the currently-live view.
func (c *Cluster) ownerOf(key string) string {
	queued, _ := c.local.Depth()
	c.mu.Lock()
	ring := c.ring
	alive := map[string]bool{c.self.ID: true}
	loads := map[string]int{c.self.ID: queued}
	if c.leaving || c.departed {
		delete(alive, c.self.ID)
	}
	for id, ps := range c.peers {
		if ps.alive {
			alive[id] = true
			loads[id] = ps.queued
		}
	}
	c.mu.Unlock()
	return ring.owner(key, alive, loads)
}

// ForwardRetry forwards a submission to node with the single bounded
// re-route the membership protocol allows: when the owner cannot take the
// job (a transport error or a 5xx — the ring may have moved mid-flight, or
// the owner may be draining or gone), the key is routed once more against
// the current epoch and the new owner tried once. A nil error means the
// job landed on the node its status names. A *Rejection is an owner's
// final answer, for the caller to relay. Any other error tells the caller
// to admit locally — no job is ever lost to topology churn, and at most
// two forwards are ever attempted.
func (c *Cluster) ForwardRetry(node, tenant string, req sched.SubmitRequest, recoveredFrom string) (sched.JobStatus, bool, error) {
	st, coalesced, err := c.forward(node, tenant, req, recoveredFrom)
	if err != nil && !isRejection(err) {
		if next, local := c.Route(req.StoreKey(), req.Force); !local && next != node {
			st, coalesced, err = c.forward(next, tenant, req, recoveredFrom)
		}
	}
	if err == nil || isRejection(err) {
		return st, coalesced, err
	}
	c.forwardFallback.Inc()
	c.log.Printf("cluster: forward of %.12s… to %s failed (%v); admitting locally", req.StoreKey(), node, err)
	return sched.JobStatus{}, false, err
}

func isRejection(err error) bool {
	var rej *Rejection
	return errors.As(err, &rej)
}

// routeSubmit is the one path that moves a pending job spec between
// nodes, used by dead-node recovery and by a leaving node's queue handoff:
// local when this node should serve the digest, forwarded (with the
// bounded re-route) otherwise, falling back to local when no owner can be
// reached — the work must not be lost to a second failure. An owner's
// rejection comes back as the error: recovery retries the job next tick,
// and a leaving node drains it itself.
func (c *Cluster) routeSubmit(tenant string, req sched.SubmitRequest, recoveredFrom string) (sched.JobStatus, error) {
	if node, local := c.Route(req.StoreKey(), req.Force); !local {
		st, _, err := c.ForwardRetry(node, tenant, req, recoveredFrom)
		if err == nil || isRejection(err) {
			return st, err
		}
	}
	return c.local.Admit(tenant, req, recoveredFrom)
}

// FetchResult is the peer read-through the result tier consults below its
// local miss: the digest's owner first (most likely holder), then every
// other live peer, one at a time. Only verified bytes come back; corrupt
// bodies count, log, and keep walking. Satisfies resultier.PeerFetch.
func (c *Cluster) FetchResult(key, version string) ([]byte, store.Meta, bool) {
	if err := c.faults.Fire("cluster.peer.fetch", key); err != nil {
		return nil, store.Meta{}, false
	}
	for _, node := range c.fetchCandidates(key) {
		if body, meta, ok := c.fetchFrom(node, key, version); ok {
			c.peerFetches.Inc()
			return body, meta, true
		}
	}
	return nil, store.Meta{}, false
}

// fetchCandidates orders the live peers for a read: owner first, the rest
// by ID.
func (c *Cluster) fetchCandidates(key string) []Node {
	owner := c.ownerOf(key)
	c.mu.Lock()
	candidates := make([]Node, 0, len(c.peers))
	if ps, ok := c.peers[owner]; ok && ps.alive {
		candidates = append(candidates, ps.node)
	}
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if ps := c.peers[id]; ps.alive && id != owner {
			candidates = append(candidates, ps.node)
		}
	}
	c.mu.Unlock()
	return candidates
}

// IsMember reports whether id names a node in this node's current
// membership view (self included).
func (c *Cluster) IsMember(id string) bool {
	_, ok := c.nodeByID(id)
	return ok
}

func (c *Cluster) nodeByID(id string) (Node, bool) {
	if id == c.self.ID {
		return c.self, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ps, ok := c.peers[id]; ok {
		return ps.node, true
	}
	return Node{}, false
}

// NodeStatus is one row of the cluster-status report.
type NodeStatus struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Self       bool   `json:"self,omitempty"`
	Alive      bool   `json:"alive"`
	Leaving    bool   `json:"leaving,omitempty"`
	Queued     int    `json:"queued"`
	Pending    int    `json:"pending"`
	LastSeenMS int64  `json:"last_seen_ms,omitempty"` // ms since last beat (0 for self)
	Nonce      string `json:"nonce,omitempty"`
}

// Status is the GET /api/v1/cluster/status body.
type Status struct {
	Self     string       `json:"self"`
	Nonce    string       `json:"nonce"`
	Epoch    uint64       `json:"epoch"`
	Departed bool         `json:"departed,omitempty"`
	Nodes    []NodeStatus `json:"nodes"`
}

// statusReport snapshots this node's view of the membership, sorted by ID.
func (c *Cluster) statusReport() Status {
	queued, _ := c.local.Depth()
	c.mu.Lock()
	st := Status{
		Self:     c.self.ID,
		Nonce:    c.nonce,
		Epoch:    c.view.Epoch,
		Departed: c.departed,
	}
	selfRow := NodeStatus{
		ID: c.self.ID, Addr: c.self.Addr, Self: true, Alive: true,
		Leaving: c.leaving,
		Queued:  queued,
		Nonce:   c.nonce,
	}
	now := time.Now()
	rows := []NodeStatus{}
	for _, ps := range c.peers {
		leaving := false
		if m, ok := c.view.find(ps.node.ID); ok {
			leaving = m.Leaving
		}
		rows = append(rows, NodeStatus{
			ID: ps.node.ID, Addr: ps.node.Addr, Alive: ps.alive,
			Leaving: leaving,
			Queued:  ps.queued, Pending: len(ps.pending),
			LastSeenMS: now.Sub(ps.lastSeen).Milliseconds(),
			Nonce:      ps.nonce,
		})
	}
	c.mu.Unlock()
	selfRow.Pending = len(c.local.Unsettled(maxPiggyback))
	st.Nodes = append([]NodeStatus{selfRow}, rows...)
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].ID < st.Nodes[j].ID })
	return st
}

// NodeQuarantine is one node's slice of the fleet-wide quarantine view.
type NodeQuarantine struct {
	ID    string            `json:"id"`
	Addr  string            `json:"addr"`
	Self  bool              `json:"self,omitempty"`
	Alive bool              `json:"alive"`
	Jobs  []sched.JobStatus `json:"jobs"`
}

// QuarantineReport is the GET /api/v1/cluster/quarantine body: this
// node's parked jobs plus every peer's last-gossiped quarantine digest,
// so a poison job parked anywhere is visible from any node (and, because
// its ID names its holder, requeue-able from any node).
type QuarantineReport struct {
	Self  string           `json:"self"`
	Epoch uint64           `json:"epoch"`
	Nodes []NodeQuarantine `json:"nodes"`
}

// quarantineReport aggregates the fleet-wide quarantine view.
func (c *Cluster) quarantineReport() QuarantineReport {
	selfJobs := c.local.Quarantined(maxQuarantineDigest)
	if selfJobs == nil {
		selfJobs = []sched.JobStatus{}
	}
	c.mu.Lock()
	rep := QuarantineReport{Self: c.self.ID, Epoch: c.view.Epoch}
	rep.Nodes = append(rep.Nodes, NodeQuarantine{
		ID: c.self.ID, Addr: c.self.Addr, Self: true, Alive: true, Jobs: selfJobs,
	})
	for _, ps := range c.peers {
		jobs := ps.quarantine
		if jobs == nil {
			jobs = []sched.JobStatus{}
		}
		rep.Nodes = append(rep.Nodes, NodeQuarantine{
			ID: ps.node.ID, Addr: ps.node.Addr, Alive: ps.alive, Jobs: jobs,
		})
	}
	c.mu.Unlock()
	sort.Slice(rep.Nodes, func(i, j int) bool { return rep.Nodes[i].ID < rep.Nodes[j].ID })
	return rep
}
