package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// Wire headers, defined once for both ends of every request that carries
// them (serve aliases the client-visible ones).
const (
	// TenantHeader names the submitting tenant for quota and rate-limit
	// accounting; a forwarded submission carries it to the owner.
	TenantHeader = "X-Sgxd-Tenant"
	// ForwardedHeader marks a submission that a peer forwarded to the
	// digest's owner; its value names the sender. The owner admits it
	// without routing it again: one hop is the protocol.
	ForwardedHeader = "X-Sgxd-Forwarded"
	// RecoveredHeader carries the dead node's ID on a forwarded submission
	// that re-enqueues its journaled work, so the receiving node can
	// annotate the adopted job (JobStatus.RecoveredFrom).
	RecoveredHeader = "X-Sgxd-Recovered-From"
	// CoalescedHeader is set to "true" on a submit response that attached
	// to an identical in-flight computation instead of starting its own.
	// The owner sets it on a forwarded submit, and the forwarding node
	// passes it on to its client.
	CoalescedHeader = "X-Sgxd-Coalesced"
)

// Body caps. A handler reads a request body up to the cap its client side
// reads the matching reply with.
const (
	// MaxSubmitBody caps a submission (POST /api/v1/jobs), the job status
	// a forward reads back, and a join announcement.
	MaxSubmitBody = 1 << 20
	maxBeatBody   = 8 << 20   // a heartbeat, its answering beat, a view
	maxResultBody = 256 << 20 // a result envelope, fetched or pushed
)

// Beat is one heartbeat: liveness plus the piggybacked state the cluster
// needs anyway — queue depth for bounded-load placement, and the sender's
// unsettled (queued/running, i.e. journal-replayable) jobs so survivors
// can re-enqueue them if the sender dies.
// Nonce identifies the sender's boot incarnation: recovery runs at most
// once per (node, nonce), and a restarted node arrives with a fresh nonce
// and a clean slate.
// The View field is the membership gossip channel: every beat carries the
// sender's epoch-versioned view, and Quarantine carries its parked-job
// digest for fleet-wide quarantine visibility.
type Beat struct {
	From       string             `json:"from"`
	Nonce      string             `json:"nonce"`
	Queued     int                `json:"queued"`
	Pending    []sched.PendingJob `json:"pending,omitempty"`
	Quarantine []sched.JobStatus  `json:"quarantine,omitempty"`
	View       View               `json:"view"`
	Unix       int64              `json:"unix"`
}

// joinRequest is the body of POST /api/v1/cluster/join, in two forms. A
// joining node announces itself with its identity and current epoch, so
// the admitting member can bump past both sides' views (see admitJoin). An
// operator (sgxctl cluster join) sends only Seed, to tell this node to
// join the fleet at that URL.
type joinRequest struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch,omitempty"`
	Seed  string `json:"seed,omitempty"`
}

// replicateAck answers a pushed result: Stored is false when the receiver
// already held it (or it names another simulator version), which still
// completes the transfer.
type replicateAck struct {
	Stored bool `json:"stored"`
}

// ResultEnvelope is the peer result wire form: the store metadata plus
// the raw body (base64 over JSON). The receiver trusts none of it —
// FetchResult re-verifies key, version, size, and sha256 before the bytes
// may enter any local tier.
type ResultEnvelope struct {
	Meta store.Meta `json:"meta"`
	Body []byte     `json:"body"`
}

// Verify re-checks an envelope against its own metadata: receiver-side
// trust boundary for pushed (re-replicated) results, mirroring what
// fetchFrom enforces for pulled ones.
func (e ResultEnvelope) Verify() bool {
	return verifyEnvelope(e.Meta.Key, e.Meta.Version, e.Body, e.Meta)
}

// verifyEnvelope is the cross-node trust boundary: peer bytes enter the
// local cache tier only if the metadata names exactly the key and
// simulator version we asked for and the body hashes to the recorded
// checksum.
func verifyEnvelope(key, version string, body []byte, meta store.Meta) bool {
	if meta.Key != key || meta.Version != version || meta.Size != int64(len(body)) {
		return false
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]) == meta.BodySHA256
}

// Rejection is an owner's final answer to a forwarded submission: a 4xx
// such as backpressure (429) or an invalid request. The forwarding node
// relays it to its client instead of admitting the job itself, so the
// owner's quotas and backpressure hold fleet-wide.
type Rejection struct {
	Node       string // the owner that refused
	Code       int    // its HTTP status
	Message    string // its error text
	RetryAfter string // its Retry-After header, if any
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("cluster: %s refused the submission: %d %s", r.Node, r.Code, r.Message)
}

// ---- server side ----

// Register mounts the peer endpoints on mux. Peers call heartbeat,
// results, join and replicate; operators call status, join (the seed
// form), leave and quarantine.
func (c *Cluster) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.statusReport())
	})
	mux.HandleFunc("POST /api/v1/cluster/heartbeat", c.serveBeat)
	mux.HandleFunc("GET /api/v1/cluster/results/{key}", c.serveResult)
	mux.HandleFunc("POST /api/v1/cluster/join", c.serveJoin)
	mux.HandleFunc("POST /api/v1/cluster/leave", c.serveLeave)
	mux.HandleFunc("POST /api/v1/cluster/replicate", c.serveReplicate)
	mux.HandleFunc("GET /api/v1/cluster/quarantine", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.quarantineReport())
	})
}

func (c *Cluster) serveBeat(w http.ResponseWriter, r *http.Request) {
	var b Beat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBeatBody)).Decode(&b); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, c.receiveBeat(b))
}

// serveResult serves a verified result body to a peer. It reads the raw
// disk store — the cluster never holds the read-through tier — so two
// nodes missing the same digest can never chase each other in a fetch
// cycle. The store's Get re-verifies checksum and version on the way out;
// the fetching side re-verifies again on arrival.
func (c *Cluster) serveResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	version := r.URL.Query().Get("version")
	if version == "" {
		version = bench.SimVersion
	}
	body, meta, ok := c.store.Get(key, version)
	if !ok {
		writeError(w, http.StatusNotFound, "no verified result for %q", key)
		return
	}
	writeJSON(w, http.StatusOK, ResultEnvelope{Meta: meta, Body: body})
}

// serveJoin admits membership churn: a joiner's announcement gets the
// fleet view back; the operator's seed form makes this node join the fleet
// at seed and answers with the resulting status.
func (c *Cluster) serveJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	if req.Seed != "" {
		if err := c.Join(req.Seed); err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, c.statusReport())
		return
	}
	v, err := c.admitJoin(Node{ID: req.ID, Addr: req.Addr}, req.Epoch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// serveLeave starts a graceful departure: ring-excluded drain, queue
// handoff, final epoch without this node. The drain runs in the background
// (it can take as long as the running jobs do); the operator polls
// /api/v1/cluster/status until departed.
func (c *Cluster) serveLeave(w http.ResponseWriter, r *http.Request) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := c.Leave(ctx); err != nil {
			c.log.Printf("cluster: leave failed: %v", err)
		}
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "leaving"})
}

// serveReplicate is the receiving side of epoch-change re-replication: a
// peer pushes a result this node now owns. The envelope is re-verified
// against its own metadata and pinned to the running simulator version
// before anything touches disk; a result already held acks stored=false so
// the pusher's resumable scan completes without re-transferring.
func (c *Cluster) serveReplicate(w http.ResponseWriter, r *http.Request) {
	var env ResultEnvelope
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResultBody)).Decode(&env); err != nil {
		writeError(w, http.StatusBadRequest, "bad replicate body: %v", err)
		return
	}
	if env.Meta.Version != bench.SimVersion {
		writeJSON(w, http.StatusOK, replicateAck{})
		return
	}
	if !env.Verify() {
		writeError(w, http.StatusBadRequest, "replicate envelope failed verification")
		return
	}
	if _, ok := c.store.Stat(env.Meta.Key); ok {
		writeJSON(w, http.StatusOK, replicateAck{})
		return
	}
	if err := c.store.Put(env.Meta.Key, env.Body, env.Meta); err != nil {
		writeError(w, http.StatusInternalServerError, "replicate store: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, replicateAck{Stored: true})
}

// ---- client side ----

// postBeat sends our beat to peer and returns its answering beat.
func (c *Cluster) postBeat(peer Node, b Beat) (Beat, error) {
	raw, err := json.Marshal(b)
	if err != nil {
		return Beat{}, err
	}
	resp, err := c.client.Post(peer.Addr+"/api/v1/cluster/heartbeat", "application/json", bytes.NewReader(raw))
	if err != nil {
		return Beat{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return Beat{}, fmt.Errorf("cluster: heartbeat to %s: %s", peer.ID, resp.Status)
	}
	var ack Beat
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBeatBody)).Decode(&ack); err != nil {
		return Beat{}, err
	}
	return ack, nil
}

// fetchFrom asks one peer for a verified result body. The envelope is
// re-verified here — checksum, size, key, and SimVersion — because the
// wire (or a buggy peer) can corrupt what the peer's disk store verified;
// the "cluster.peer.body" bitflip site models exactly that. Any failure is
// a miss: whether the peer is usable is for heartbeats to decide.
func (c *Cluster) fetchFrom(peer Node, key, version string) (body []byte, meta store.Meta, ok bool) {
	resp, err := c.client.Get(peer.Addr + "/api/v1/cluster/results/" + key + "?version=" + url.QueryEscape(version))
	if err != nil {
		return nil, store.Meta{}, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, store.Meta{}, false
	}
	var env ResultEnvelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBody)).Decode(&env); err != nil {
		return nil, store.Meta{}, false
	}
	raw := c.faults.Mutate("cluster.peer.body", key, env.Body)
	if !verifyEnvelope(key, version, raw, env.Meta) {
		c.peerCorrupt.Inc()
		c.log.Printf("cluster: result %.12s… from %s failed verification; treating as miss", key, peer.ID)
		return nil, store.Meta{}, false
	}
	return raw, env.Meta, true
}

// postJoin announces node n (at epoch) to seed's join endpoint and
// returns the fleet view the seed responds with.
func (c *Cluster) postJoin(seed string, n Node, epoch uint64) (View, error) {
	raw, err := json.Marshal(joinRequest{ID: n.ID, Addr: n.Addr, Epoch: epoch})
	if err != nil {
		return View{}, err
	}
	resp, err := c.client.Post(seed+"/api/v1/cluster/join", "application/json", bytes.NewReader(raw))
	if err != nil {
		return View{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return View{}, fmt.Errorf("cluster: join via %s: %s: %s", seed, resp.Status, readErrorBody(resp.Body))
	}
	var v View
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBeatBody)).Decode(&v); err != nil {
		return View{}, err
	}
	return v, nil
}

// pushResult pushes one verified result envelope to its new owner's
// replicate endpoint (the peer-fetch body path in reverse). stored
// reports whether the receiver wrote it — false means it already held the
// result, which still completes the transfer.
func (c *Cluster) pushResult(peer Node, env ResultEnvelope) (stored bool, err error) {
	if ferr := c.faults.Fire("cluster.peer.replicate", env.Meta.Key); ferr != nil {
		return false, ferr
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return false, err
	}
	resp, err := c.client.Post(peer.Addr+"/api/v1/cluster/replicate", "application/json", bytes.NewReader(raw))
	if err != nil {
		return false, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("cluster: replicate to %s: %s: %s", peer.ID, resp.Status, readErrorBody(resp.Body))
	}
	var ack replicateAck
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack); err != nil {
		return false, err
	}
	return ack.Stored, nil
}

// forward sends a submission to nodeID, the digest's owner, through its
// ordinary submit endpoint marked with ForwardedHeader, and returns the
// owner's job status and coalesced flag. A 4xx answer is final and comes
// back as a *Rejection; a transport error or any other status means the
// owner could not take the job.
func (c *Cluster) forward(nodeID, tenant string, req sched.SubmitRequest, recoveredFrom string) (st sched.JobStatus, coalesced bool, err error) {
	peer, ok := c.nodeByID(nodeID)
	if !ok {
		return st, false, fmt.Errorf("cluster: unknown node %q", nodeID)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return st, false, err
	}
	hreq, err := http.NewRequest(http.MethodPost, peer.Addr+"/api/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		return st, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardedHeader, c.self.ID)
	if tenant != "" {
		hreq.Header.Set(TenantHeader, tenant)
	}
	if recoveredFrom != "" {
		hreq.Header.Set(RecoveredHeader, recoveredFrom)
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return st, false, err
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusCreated:
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return st, false, &Rejection{Node: nodeID, Code: resp.StatusCode,
			Message: readErrorBody(resp.Body), RetryAfter: resp.Header.Get("Retry-After")}
	default:
		return st, false, fmt.Errorf("cluster: submit to %s: %s: %s", nodeID, resp.Status, readErrorBody(resp.Body))
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxSubmitBody)).Decode(&st); err != nil {
		return sched.JobStatus{}, false, err
	}
	c.forwarded.Inc()
	return st, resp.Header.Get(CoalescedHeader) == "true", nil
}

// ProxyJob forwards an HTTP request for another node's job (status,
// result, progress, profile, cancel, requeue) to the node that holds it,
// streaming the response back. The response is always written: either the
// peer's, or a 502 explaining why the peer could not answer.
func (c *Cluster) ProxyJob(w http.ResponseWriter, r *http.Request, nodeID string) {
	peer, ok := c.nodeByID(nodeID)
	if !ok {
		writeError(w, http.StatusBadGateway, "request routed to unknown node %q", nodeID)
		return
	}
	target := peer.Addr + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	hreq, err := http.NewRequestWithContext(r.Context(), r.Method, target, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		writeError(w, http.StatusBadGateway, "node %s unreachable: %v", nodeID, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy streams body to w, flushing after every chunk so proxied
// progress streams stay live.
func flushCopy(w http.ResponseWriter, body io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// writeJSON and writeError render bodies exactly as the rest of sgxd's
// API does: indented JSON, errors as {"error": ...}.
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

func readErrorBody(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		return env.Error
	}
	return string(bytes.TrimSpace(raw))
}

// drainClose consumes the rest of a response body before closing so the
// underlying connection can be reused by the pooled client.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// defaultClient bounds every peer call: a node that stops answering must
// cost one timeout, not a wedged heartbeat loop.
func defaultClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second}
}
