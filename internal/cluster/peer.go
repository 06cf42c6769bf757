package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// Wire headers for node-to-node requests. tenantHeader must match
// serve.TenantHeader (serve cannot be imported here — it imports this
// package); the serve tests pin the two constants together.
const (
	tenantHeader = "X-Sgxd-Tenant"
	// RecoveredHeader carries the dead node's ID on a cluster submit that
	// re-enqueues its journaled work, so the receiving node can annotate
	// the adopted job (JobStatus.RecoveredFrom).
	RecoveredHeader = "X-Sgxd-Recovered-From"
	// CoalescedHeader is set to "true" on a submit response that attached
	// to an identical in-flight computation instead of starting its own.
	// The owner sets it on a forwarded submit, and the forwarding node
	// passes it on to its client (serve.CoalescedHeader is this name).
	CoalescedHeader = "X-Sgxd-Coalesced"
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

// joinRequest is the node-to-node wire form of a join: the joiner's
// identity plus its current epoch, so the admitting member can bump past
// both sides' views (see Cluster.HandleJoin).
type joinRequest struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// ResultEnvelope is the peer result wire form: the store metadata plus
// the raw body (base64 over JSON). The receiver trusts none of it —
// FetchResult re-verifies key, version, size, and sha256 before the bytes
// may enter any local tier.
type ResultEnvelope struct {
	Meta store.Meta `json:"meta"`
	Body []byte     `json:"body"`
}

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
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&ack); err != nil {
		return Beat{}, err
	}
	return ack, nil
}

// fetchFrom asks one peer for a verified result body. The envelope is
// re-verified here — checksum, size, key, and SimVersion — because the
// wire (or a buggy peer) can corrupt what the peer's disk store verified;
// the "cluster.peer.body" bitflip site models exactly that. reachable
// distinguishes a healthy answer (200 or a clean 404 miss) from a
// transport or server failure — only the latter feeds the peer's circuit
// breaker.
func (c *Cluster) fetchFrom(peer Node, key, version string) (body []byte, meta store.Meta, ok, reachable bool) {
	resp, err := c.client.Get(peer.Addr + "/api/v1/cluster/results/" + key + "?version=" + url.QueryEscape(version))
	if err != nil {
		return nil, store.Meta{}, false, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return nil, store.Meta{}, false, true
	}
	if resp.StatusCode != http.StatusOK {
		return nil, store.Meta{}, false, false
	}
	var env ResultEnvelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&env); err != nil {
		return nil, store.Meta{}, false, false
	}
	raw := c.faults.Mutate("cluster.peer.body", key, env.Body)
	if !verifyEnvelope(key, version, raw, env.Meta) {
		c.peerCorrupt.Inc()
		c.log.Printf("cluster: result %.12s… from %s failed verification; treating as miss", key, peer.ID)
		return nil, store.Meta{}, false, true
	}
	return raw, env.Meta, true, true
}

// Verify re-checks an envelope against its own metadata: receiver-side
// trust boundary for pushed (re-replicated) results, mirroring what
// fetchFrom enforces for pulled ones.
func (e ResultEnvelope) Verify() bool {
	return verifyEnvelope(e.Meta.Key, e.Meta.Version, e.Body, e.Meta)
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
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&v); err != nil {
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
	var ack struct {
		Stored bool `json:"stored"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack); err != nil {
		return false, err
	}
	return ack.Stored, nil
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

// forwardSubmit routes one submission to its owning node's cluster-submit
// endpoint and returns the owner's job status and coalesced flag.
func (c *Cluster) forwardSubmit(peer Node, tenant string, req sched.SubmitRequest, recoveredFrom string) (sched.JobStatus, bool, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return sched.JobStatus{}, false, err
	}
	hreq, err := http.NewRequest(http.MethodPost, peer.Addr+"/api/v1/cluster/submit", bytes.NewReader(raw))
	if err != nil {
		return sched.JobStatus{}, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(tenantHeader, tenant)
	}
	if recoveredFrom != "" {
		hreq.Header.Set(RecoveredHeader, recoveredFrom)
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return sched.JobStatus{}, false, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return sched.JobStatus{}, false, fmt.Errorf("cluster: submit to %s: %s: %s", peer.ID, resp.Status, readErrorBody(resp.Body))
	}
	var st sched.JobStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return sched.JobStatus{}, false, err
	}
	return st, resp.Header.Get(CoalescedHeader) == "true", nil
}

// ProxyJob forwards an HTTP request for another node's job (status,
// result, progress, profile, cancel) to the node that holds it, streaming
// the response back. The response is always written: either the peer's, or a
// 502 explaining why the peer could not answer.
func (c *Cluster) ProxyJob(w http.ResponseWriter, r *http.Request, nodeID string) {
	c.ProxyPath(w, r, nodeID, r.URL.Path)
}

// ProxyPath forwards the request to nodeID at an explicit path (the
// cross-node requeue endpoint rewrites the path; ProxyJob keeps it).
func (c *Cluster) ProxyPath(w http.ResponseWriter, r *http.Request, nodeID, path string) {
	peer, ok := c.nodeByID(nodeID)
	if !ok {
		writeProxyError(w, http.StatusBadGateway, fmt.Sprintf("request routed to unknown node %q", nodeID))
		return
	}
	hreq, err := http.NewRequest(r.Method, peer.Addr+path+querySuffix(r), nil)
	if err != nil {
		writeProxyError(w, http.StatusBadGateway, err.Error())
		return
	}
	hreq = hreq.WithContext(r.Context())
	resp, err := c.client.Do(hreq)
	if err != nil {
		writeProxyError(w, http.StatusBadGateway, fmt.Sprintf("node %s unreachable: %v", nodeID, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

func querySuffix(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
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

func writeProxyError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
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
