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
//     also piggyback queue depth and the sender's unsettled jobs. A higher
//     epoch wins; epoch ties break on the view digest, so concurrent
//     changes converge without coordination.
//     Nodes join a running fleet (POST /api/v1/cluster/join) and leave it
//     gracefully (ring-excluded drain, queue handoff, evacuation, then
//     departure) without any restarts. A node silent past the dead-after
//     window is dead. This is the one liveness signal: a peer leaves the
//     ring, the fetch candidates and the evacuation targets only when
//     heartbeats declare it dead, and a failed call to a live peer costs
//     that call alone.
//   - Placement: job digests consistent-hash onto live nodes (bounded-load
//     variant — a node whose queue exceeds its fair share spills to the
//     next ring node, so hot shards spread). Submit is the one path every
//     submission takes to the node that runs it: a client's POST, a dead
//     node's adopted job and a leaving node's handoff. A node serves a key
//     itself when it owns it or already holds its result; otherwise it
//     forwards. The ring is rebuilt atomically on every epoch change; an
//     in-flight forward that loses the race re-routes once against the new
//     epoch before falling back to local compute. An owner's 4xx
//     (backpressure, quota) is final: the forwarding node relays it instead
//     of admitting the job itself. The forward is an ordinary POST
//     /api/v1/jobs whose headers this package writes (forward) and reads
//     back on the owner (ReadForward).
//   - Peer-fetch read-through: a local result miss consults live peers
//     before computing, owner first. Peer bytes are re-verified (key,
//     SimVersion, size, sha256) on arrival; corrupt bytes count, log, and
//     fall through — they never reach a cache tier or a client. The same
//     fetch keeps a replica: when a forward comes back as the owner's store
//     hit, the forwarding node fetches that entry once and commits it to
//     its own store, so repeat hits are served where they land instead of
//     crossing nodes. A node's store thus holds every result it has
//     answered.
//   - Evacuation: while a node stays in the fleet, results cross nodes only
//     by the verified pull above; an epoch change moves no result. The one
//     push is a leaving node's: once its last job settles, Leave walks its
//     store manifest once and pushes each result to its owner, one request
//     at a time, before departing, so a graceful leave loses no result. A
//     key a join moves gets no eager copy at its new owner; the owner's
//     first read of it is a peer fetch.
//   - Recovery and handoff: when a node dies, exactly one survivor (its
//     successor among the living) re-enqueues the dead node's piggybacked
//     unsettled jobs, at most once per job per boot incarnation; a leaving
//     node hands its still-queued jobs to their new owners. Both move
//     pending work through Submit, and a moved job carries its start
//     count, so a job that kills every node it starts on stops at
//     sched.MaxStarts fleet-wide instead of taking each node down.
//
// Fault sites (internal/faultline): "cluster.peer.fetch" fails the peer
// read-through, bitflip on "cluster.peer.body" corrupts received result
// bytes, and "cluster.peer.replicate" fails the push of one evacuated
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

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// maxPiggyback bounds the unsettled-job set carried per heartbeat; a node
// with more pending work than this recovers the overflow from its own
// journal when it restarts, as before clustering.
const maxPiggyback = 256

// Local is the slice of the serving stack the cluster drives on its own
// node. internal/serve implements it over the admission layer and the
// scheduler; tests implement it directly.
type Local interface {
	// Admit submits through the node's own admission layer (validation,
	// quotas, coalescing); coalesced reports that the job is shared with
	// an identical in-flight submission.
	Admit(tenant string, req sched.SubmitRequest) (st sched.JobStatus, coalesced bool, err error)
	// Depth reports the scheduler backlog length: the jobs queued for a
	// worker, which heartbeats carry for bounded-load placement.
	Depth() int
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
}

// Config parameterises a Cluster.
type Config struct {
	Self  string // this node's ID; must appear in Nodes
	Nodes []Node // boot membership, including Self (may be Self alone before a join)

	// Heartbeat is the beat interval (default 1s); liveness and recovery
	// checks run on its ticker, and a leave waits one interval between
	// polls for its last job and between retries of a failed push.
	Heartbeat time.Duration
	// DeadAfter is how many missed beat intervals declare a peer dead
	// (default 3).
	DeadAfter int

	Local Local
	// Store is the node's raw disk tier, never the read-through above it:
	// peers are served from it (so two nodes missing a digest cannot chase
	// each other), kept replicas and pushed results land in it, and a
	// leaving node's evacuation walks it.
	Store   *store.Store
	Metrics *telemetry.Registry
	Faults  *faultline.Injector
	Log     *log.Logger
}

// peerState is everything we know about one remote member.
type peerState struct {
	node     Node
	lastSeen time.Time
	alive    bool
	nonce    string // boot incarnation from its last beat
	queued   int
	pending  []sched.PendingJob
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
	// sgxd_rereplicated_total (results an evacuation pushed and its
	// receiver stored); the rest live under cluster.*.
	peerFetches, rereplicated, peerCorrupt      *telemetry.Counter
	beatsSent, beatsRecv, deaths, jobsRecovered *telemetry.Counter
	forwarded, forwardFallback, epochChanges    *telemetry.Counter
	joins                                       *telemetry.Counter

	mu       sync.Mutex
	view     View
	ring     *ring
	peers    map[string]*peerState
	adopted  map[string]bool // "deadID@nonce/jobID" → re-enqueued
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

// Start launches the heartbeat and recovery loop. Every peer
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
		}
	}
}

// selfBeat snapshots this node's wire-visible state, membership view
// included — the view is how epochs gossip.
func (c *Cluster) selfBeat() Beat {
	queued := c.local.Depth()
	c.mu.Lock()
	view := c.view.clone()
	c.mu.Unlock()
	return Beat{
		From:    c.self.ID,
		Nonce:   c.nonce,
		Queued:  queued,
		Pending: c.local.Unsettled(maxPiggyback),
		View:    view,
		Unix:    time.Now().Unix(),
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
// rebuilt for the epoch, and the peer table gains new members (with a full
// liveness grace window) and drops departed ones. (Caller holds c.mu.)
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

// Leave gracefully exits the fleet, in one straight line: gossip a
// ring-excluded (leaving) epoch, close local admission, hand still-queued
// jobs to their new owners, wait until no local job is unsettled, push
// every stored result to its owner (evacuate), then gossip a final epoch
// without this node and stop the loop. The process stays up afterwards —
// drained, serving reads — until the operator stops it.
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
	// recovery uses. Our own admission is draining, so Submit can only
	// succeed by landing the job on another node; the local copy is
	// cancelled only then (a failed handoff stays local and drains).
	for _, pj := range c.local.Queued(maxPiggyback) {
		st, _, err := c.Submit("cluster-handoff", adoptable(pj, ""))
		if err != nil || st.Node == "" || st.Node == c.self.ID {
			c.log.Printf("cluster: handoff of %s failed (%v); draining it locally", pj.ID, err)
			continue
		}
		c.local.Cancel(pj.ID)
		c.log.Printf("cluster: handed off queued job %s to %s as %s", pj.ID, st.Node, st.ID)
	}

	// A job persists its result before it turns terminal, and admission is
	// closed and the ring excludes us, so once nothing is unsettled the
	// store holds every result this node will ever compute.
	for len(c.local.Unsettled(1)) > 0 {
		if err := c.waitBeat(ctx); err != nil {
			return err
		}
	}
	if err := c.evacuate(ctx); err != nil {
		return err
	}

	c.mu.Lock()
	c.departed = true
	c.installViewLocked(c.view.without(c.self.ID))
	c.mu.Unlock()
	c.beatOnce() // final gossip: the fleet drops us this epoch
	c.log.Printf("cluster: departed the fleet")
	c.Stop()
	return nil
}

// pushAttempts bounds the pushes of one result during an evacuation;
// after that many failures the key is skipped.
const pushAttempts = 3

// evacuate is a leaving node's one pass over its store: each result goes
// to its owner in the ring that already excludes this node, one push at a
// time, so a single request in flight bounds the load. The push is the
// peer-fetch envelope in reverse, re-verified by the receiver, which
// stores only what it lacks. A failed push is retried a heartbeat later,
// at most pushAttempts times in all, and the key is then skipped, so an
// owner that answers heartbeats but refuses pushes cannot stall the leave.
func (c *Cluster) evacuate(ctx context.Context) error {
	keys := c.manifest()
	skipped := 0
	for _, key := range keys {
		err := c.evacuateKey(key)
		for attempt := 1; err != nil && attempt < pushAttempts; attempt++ {
			if werr := c.waitBeat(ctx); werr != nil {
				return werr
			}
			err = c.evacuateKey(key)
		}
		if err != nil {
			skipped++
			c.log.Printf("cluster: evacuation of %.12s… failed %d times: %v; skipping it", key, pushAttempts, err)
		}
	}
	c.log.Printf("cluster: evacuated %d stored results (%d skipped)", len(keys)-skipped, skipped)
	return nil
}

// evacuateKey pushes one stored result to its owner, counting it when the
// owner stored it. A key with no live owner, or no longer in the store, is
// skipped without a push.
func (c *Cluster) evacuateKey(key string) error {
	peer, ok := c.nodeByID(c.ownerOf(key))
	if !ok {
		return nil
	}
	body, meta, ok := c.store.Get(key, bench.SimVersion)
	if !ok {
		return nil
	}
	stored, err := c.pushResult(peer, ResultEnvelope{Meta: meta, Body: body})
	if stored {
		c.rereplicated.Inc()
	}
	return err
}

// manifest lists, in key order, the stored keys for the running simulator
// version — the results an evacuation pushes.
func (c *Cluster) manifest() []string {
	keys, err := c.store.Keys()
	if err != nil {
		return nil
	}
	current := keys[:0]
	for _, key := range keys {
		if meta, ok := c.store.Stat(key); ok && meta.Version == bench.SimVersion {
			current = append(current, key)
		}
	}
	return current
}

// waitBeat waits one heartbeat interval, or reports why a leave must stop
// early: its context ended or the cluster was stopped.
func (c *Cluster) waitBeat(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("cluster: leave interrupted: %w", ctx.Err())
	case <-c.stop:
		return errors.New("cluster: stopped mid-leave")
	case <-time.After(c.interval):
		return nil
	}
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
// under the post-death ring (which may be this node or another survivor),
// with the start count each had there. A job is marked adopted only once
// its submission succeeds, so a transient failure retries next tick
// without double-enqueueing the jobs that made it.
func (c *Cluster) recover(deadID string, jobs []sched.PendingJob) {
	c.mu.Lock()
	nonce := ""
	if ps, ok := c.peers[deadID]; ok {
		nonce = ps.nonce
	}
	c.mu.Unlock()
	for _, pj := range jobs {
		st, _, err := c.Submit("cluster-recovery", adoptable(pj, deadID))
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

// adoptable is the submission that moves pj to another node: its request
// with its start count, which the receiving scheduler journals and bounds,
// and the dead node it is recovered from ("" for a handoff).
func adoptable(pj sched.PendingJob, recoveredFrom string) sched.SubmitRequest {
	req := pj.Req
	req.Attempts = pj.Attempts
	req.RecoveredFrom = recoveredFrom
	return req
}

func orSelf(node, self string) string {
	if node == "" {
		return self
	}
	return node
}

// route decides placement for a content address: serve locally when this
// node owns the digest or already holds the result (and the client did
// not Force a recompute); otherwise name the owning node.
func (c *Cluster) route(key string, force bool) (node string, local bool) {
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
	queued := c.local.Depth()
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

// Submit takes one submission to the node that runs it: this node when it
// owns the digest or already holds the result, else the owner, by a
// forward. When the owner cannot take the job (a transport error or a 5xx
// — the ring may have moved mid-flight, or the owner may be draining or
// gone), the key is routed once more against the current epoch and the
// new owner tried once, so at most two forwards are attempted. An owner's
// 4xx is its final answer and comes back as a *Rejection, for the caller
// to relay (recovery retries the job next tick, and a leaving node drains
// it itself). Any other failure falls back to Local.Admit: no job is ever
// lost to topology churn. When the owner answers a store hit, this node
// keeps a verified replica of it (keepReplica) before relaying the answer
// unchanged, so the next submission of the key here is a local store hit.
func (c *Cluster) Submit(tenant string, req sched.SubmitRequest) (sched.JobStatus, bool, error) {
	key := req.StoreKey()
	node, local := c.route(key, req.Force)
	if local {
		return c.local.Admit(tenant, req)
	}
	st, coalesced, err := c.forward(node, tenant, req)
	if err != nil && !isRejection(err) {
		if next, local := c.route(key, req.Force); !local && next != node {
			st, coalesced, err = c.forward(next, tenant, req)
		}
	}
	if err == nil {
		if !req.Force && st.FromStore && st.State == sched.StateDone && st.Key == key {
			c.keepReplica(key)
		}
		return st, coalesced, nil
	}
	if isRejection(err) {
		return st, coalesced, err
	}
	c.forwardFallback.Inc()
	c.log.Printf("cluster: forward of %.12s… to %s failed (%v); admitting locally", key, node, err)
	return c.local.Admit(tenant, req)
}

// keepReplica fetches key's entry from the peers, owner first, and
// commits it to this node's raw store, as serveReplicate commits a pushed
// result. FetchResult re-verifies the bytes, so only bytes that passed
// verifyEnvelope are stored. A leaving or departed node keeps nothing: it
// is handing its work away. A failed fetch or write stores nothing, and
// the next submission of the key forwards again.
func (c *Cluster) keepReplica(key string) {
	c.mu.Lock()
	gone := c.leaving || c.departed
	c.mu.Unlock()
	if gone {
		return
	}
	body, meta, ok := c.FetchResult(key, bench.SimVersion)
	if !ok {
		return
	}
	if err := c.store.Put(key, body, meta); err != nil {
		c.log.Printf("cluster: replica of %.12s… not stored: %v", key, err)
	}
}

func isRejection(err error) bool {
	var rej *Rejection
	return errors.As(err, &rej)
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
	queued := c.local.Depth()
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
