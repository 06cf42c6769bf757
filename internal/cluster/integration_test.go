// In-process cluster integration tests: N real serve.Servers joined into
// one membership over httptest listeners, with a deterministic compute
// stub so every assertion about byte identity is exact. The package is
// cluster_test (not cluster) so it can import internal/serve — the
// production dependency runs serve → cluster, and Go's external test
// packages make the reverse edge legal here without a cycle.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/cluster"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/store"
)

// testNode is one in-process clustered daemon.
type testNode struct {
	id       string
	url      string
	srv      *serve.Server
	ts       *httptest.Server
	computes *atomic.Int64
	release  func() // opens the compute gate (no-op when ungated)
	stop     func() // idempotent teardown
}

// nodeOpts tweaks one node's build.
type nodeOpts struct {
	workers     int
	gated       bool // compute blocks until release() (or ctx cancel)
	faults      *faultline.Injector
	maxAttempts int
	poison      int // first N computes of experiment "table4" panic (transient)
	inFlight    int // per-tenant in-flight quota (0 = unlimited)
}

// output is the deterministic result body the stub computes for a spec —
// the byte-identity oracle for every cross-node assertion.
func output(spec bench.Job) string {
	return fmt.Sprintf("cluster output for %s threads=%d\n", spec.Experiment, spec.Threads)
}

// startCluster boots n clustered daemons with real listeners bound before
// any server starts, so every node knows the full membership at birth.
func startCluster(t *testing.T, n int, opts func(i int) nodeOpts) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	members := make([]cluster.Node, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		o := nodeOpts{workers: 1}
		if opts != nil {
			o = opts(i)
			if o.workers == 0 {
				o.workers = 1
			}
		}
		nodes[i] = buildNode(t, listeners[i], members[i], members, o)
	}
	waitMembership(t, nodes)
	return nodes
}

// buildNode assembles one clustered daemon on a pre-bound listener, with
// the given membership as its boot view. Shared by startCluster (full
// membership at birth) and startSoloNode (a joiner that knows only itself).
func buildNode(t *testing.T, ln net.Listener, self cluster.Node, members []cluster.Node, o nodeOpts) *testNode {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	var poisonLeft atomic.Int64
	poisonLeft.Store(int64(o.poison))
	gate := make(chan struct{})
	if !o.gated {
		close(gate)
	}
	srv, err := serve.New(serve.Config{
		Store:             st,
		Workers:           o.workers,
		Faults:            o.faults,
		MaxAttempts:       o.maxAttempts,
		TenantMaxInFlight: o.inFlight,
		Compute: func(ctx context.Context, spec bench.Job) (*serve.ResultBundle, error) {
			computes.Add(1)
			if spec.Experiment == "table4" && poisonLeft.Add(-1) >= 0 {
				panic("poison compute") // transient by classification: retries, then quarantine
			}
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return &serve.ResultBundle{Output: output(spec)}, nil
		},
		Cluster: &serve.ClusterConfig{
			Self:      self.ID,
			Nodes:     members,
			Heartbeat: 25 * time.Millisecond,
			DeadAfter: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	var once sync.Once
	var relOnce sync.Once
	node := &testNode{
		id:       self.ID,
		url:      "http://" + ln.Addr().String(),
		srv:      srv,
		ts:       ts,
		computes: &computes,
		release:  func() { relOnce.Do(func() { close(gate) }) },
	}
	if !o.gated {
		node.release = func() {}
	}
	node.stop = func() {
		once.Do(func() {
			node.release()
			srv.Abort()
			ts.Close()
		})
	}
	t.Cleanup(node.stop)
	return node
}

// startSoloNode boots one clustered daemon that believes it is a fleet of
// one — the state a fresh `sgxd -join` process is in before announcing
// itself to a seed.
func startSoloNode(t *testing.T, id string, o nodeOpts) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if o.workers == 0 {
		o.workers = 1
	}
	self := cluster.Node{ID: id, Addr: "http://" + ln.Addr().String()}
	return buildNode(t, ln, self, []cluster.Node{self}, o)
}

// waitMembership blocks until every node sees every other node alive.
func waitMembership(t *testing.T, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, n := range nodes {
			st := clusterStatus(t, n.url)
			alive := 0
			for _, row := range st.Nodes {
				if row.Alive {
					alive++
				}
			}
			if alive != len(nodes) {
				settled = false
			}
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster membership never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func clusterStatus(t *testing.T, base string) cluster.Status {
	t.Helper()
	var st cluster.Status
	if code := getJSON(t, base+"/api/v1/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("cluster status: HTTP %d", code)
	}
	return st
}

// submitVia posts through the public submit endpoint (route-or-serve).
func submitVia(t *testing.T, base string, req serve.SubmitRequest) serve.JobStatus {
	t.Helper()
	st, _ := postSubmit(t, base, req, nil)
	return st
}

// submitPinned posts a submission marked as forwarded, which the node
// admits without routing — how a forwarded, recovered, or handed-off job
// arrives, and how tests pin a job onto one specific node.
func submitPinned(t *testing.T, base string, req serve.SubmitRequest) serve.JobStatus {
	t.Helper()
	st, _ := postSubmit(t, base, req, http.Header{cluster.ForwardedHeader: {"test"}})
	return st
}

// sendSubmit posts one submission to base's submit endpoint with the
// given extra headers; the caller closes the response.
func sendSubmit(t *testing.T, base string, req serve.SubmitRequest, hdr http.Header) *http.Response {
	t.Helper()
	raw, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, base+"/api/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range hdr {
		hreq.Header[name] = vals
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postSubmit posts one submission, requires a 201, and returns the job
// status with the response headers.
func postSubmit(t *testing.T, base string, req serve.SubmitRequest, hdr http.Header) (serve.JobStatus, http.Header) {
	t.Helper()
	resp := sendSubmit(t, base, req, hdr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s/api/v1/jobs: %s: %s", base, resp.Status, body)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.Header
}

// waitDone polls base for id until the job is done (proxying included).
func waitDone(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	return waitDoneFor(t, base, id, 15*time.Second)
}

func waitDoneFor(t *testing.T, base, id string, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st serve.JobStatus
		code := getJSON(t, base+"/api/v1/jobs/"+id, &st)
		if code == http.StatusOK && st.State.Terminal() {
			if st.State != serve.StateDone {
				t.Fatalf("job %s settled %s: %s", id, st.State, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done (last HTTP %d, state %s)", id, code, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s: %s", id, resp.Status, body)
	}
	return string(body)
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// metricValue extracts one counter's value from Prometheus exposition
// text, 0 when absent.
func metricValue(text, name string) float64 {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	return v
}

// distinctSpecs returns n submit requests with n distinct content
// addresses (fig7 uses threads, so each thread count is its own digest).
func distinctSpecs(n int) []serve.SubmitRequest {
	specs := make([]serve.SubmitRequest, n)
	for i := range specs {
		specs[i] = serve.SubmitRequest{Experiment: "fig7", Threads: i + 1}
	}
	return specs
}

// TestRouteOrServeSpreadsAndProxies drives the tentpole path end to end:
// distinct submissions through one front node spread across the ring,
// every status and result fetch through that same node proxies to the
// owner, and the bytes match the deterministic oracle everywhere. Any
// node answers for any job: a third node that neither fronted nor owns
// the job serves the same bytes, because the job ID names its holder.
func TestRouteOrServeSpreadsAndProxies(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	front := nodes[0]
	byID := map[string]*testNode{}
	for _, n := range nodes {
		byID[n.id] = n
	}

	specs := distinctSpecs(12)
	owners := map[string]bool{}
	for _, req := range specs {
		st := submitVia(t, front.url, req)
		if st.Node == "" {
			t.Fatalf("job %s has no node stamp", st.ID)
		}
		owners[st.Node] = true

		done := waitDone(t, front.url, st.ID)
		want := output(req.Job().Canonical())
		got := fetchResult(t, front.url, st.ID)
		if got != want {
			t.Fatalf("via front: result %q, want %q", got, want)
		}
		// The same job fetched on its owner directly must be the same bytes.
		owner, ok := byID[done.Node]
		if !ok {
			t.Fatalf("job %s settled on unknown node %q", st.ID, done.Node)
		}
		if direct := fetchResult(t, owner.url, st.ID); direct != got {
			t.Fatalf("owner/front results differ: %q vs %q", direct, got)
		}
		for _, other := range nodes {
			if other != front && other != owner {
				if via := fetchResult(t, other.url, st.ID); via != got {
					t.Fatalf("via %s (neither front nor owner): %q, want %q", other.id, via, got)
				}
				break
			}
		}
	}
	if len(owners) < 2 {
		t.Fatalf("12 distinct digests all landed on %v; placement is not spreading", owners)
	}
	if code := getJSON(t, front.url+"/api/v1/jobs/n9-j000001", nil); code != http.StatusNotFound {
		t.Fatalf("job ID naming no member: HTTP %d, want 404", code)
	}
}

// TestForwardedSubmitKeepsCoalescedHeader pins the coalesced flag across a
// forward: a spec owned by n2, submitted twice through n1 while the first
// job is still running on n2, coalesces on the owner — and the second 201
// that n1 returns must say so, with the first job's ID.
func TestForwardedSubmitKeepsCoalescedHeader(t *testing.T) {
	nodes := startCluster(t, 2, func(i int) nodeOpts {
		return nodeOpts{gated: i == 1}
	})
	front, owner := nodes[0], nodes[1]

	req, first := firstOwnedBy(t, front, owner)
	second, hdr := postSubmit(t, front.url, req, nil)
	if got := hdr.Get(serve.CoalescedHeader); got != "true" {
		t.Fatalf("forwarded duplicate submit: %s = %q, want \"true\"", serve.CoalescedHeader, got)
	}
	if second.ID != first.ID {
		t.Fatalf("forwarded duplicate got job %s, want the in-flight %s", second.ID, first.ID)
	}
	owner.release()
	waitDone(t, front.url, first.ID)
	if got, want := fetchResult(t, front.url, first.ID), output(req.Job().Canonical()); got != want {
		t.Fatalf("coalesced job result %q, want %q", got, want)
	}
	// Forwards use the ordinary submit endpoint; there is no peer-only one.
	if code := postJSON(t, owner.url+"/api/v1/cluster/submit", req, nil); code != http.StatusNotFound {
		t.Fatalf("POST /api/v1/cluster/submit: HTTP %d, want 404", code)
	}
}

// firstOwnedBy submits distinct specs through front until one lands on
// owner, and returns that spec with its job status.
func firstOwnedBy(t *testing.T, front, owner *testNode) (serve.SubmitRequest, serve.JobStatus) {
	t.Helper()
	for _, spec := range distinctSpecs(32) {
		if st, _ := postSubmit(t, front.url, spec, nil); st.Node == owner.id {
			return spec, st
		}
	}
	t.Fatalf("no spec out of 32 was placed on %s", owner.id)
	return serve.SubmitRequest{}, serve.JobStatus{}
}

// TestOwnerBackpressureRelayed pins that an owner's 4xx is final: with
// n2's tenant quota held by one gated job, further n2-owned submissions
// through n1 answer 429 with Retry-After from n1 instead of being admitted
// on n1, so the quota holds fleet-wide.
func TestOwnerBackpressureRelayed(t *testing.T) {
	nodes := startCluster(t, 2, func(i int) nodeOpts {
		if i == 1 {
			return nodeOpts{gated: true, inFlight: 1}
		}
		return nodeOpts{}
	})
	front, owner := nodes[0], nodes[1]
	_, held := firstOwnedBy(t, front, owner)

	rejected := map[string]bool{}
	for _, req := range distinctSpecs(64)[32:44] {
		resp := sendSubmit(t, front.url, req, nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("relayed 429 without Retry-After: %s", body)
			}
			rejected[req.StoreKey()] = true
		case http.StatusCreated:
			var st serve.JobStatus
			json.Unmarshal(body, &st)
			if st.Node != front.id {
				t.Fatalf("job %s admitted on %s while its quota is held", st.ID, st.Node)
			}
		default:
			t.Fatalf("submit through %s: %s: %s", front.id, resp.Status, body)
		}
	}
	if len(rejected) == 0 {
		t.Fatal("no n2-owned submission was refused: the owner's backpressure did not reach the client")
	}
	var list []serve.JobStatus
	getJSON(t, front.url+"/api/v1/jobs", &list)
	for _, st := range list {
		if rejected[st.Key] {
			t.Fatalf("%s holds job %s for a submission its owner refused", front.id, st.ID)
		}
	}
	if v := metricValue(metricsText(t, front.url), "sgxd_cluster_forward_fallback_total"); v != 0 {
		t.Fatalf("sgxd_cluster_forward_fallback_total = %v, want 0 (a refusal is not a fallback)", v)
	}
	owner.release()
	waitDone(t, front.url, held.ID)
}

// TestProxiedCancelNamesHolder cancels an n2 job through n1: the proxied
// answer carries n2's node stamp, like every other job route, and the job
// ends cancelled.
func TestProxiedCancelNamesHolder(t *testing.T) {
	nodes := startCluster(t, 2, func(i int) nodeOpts { return nodeOpts{gated: i == 1} })
	front, owner := nodes[0], nodes[1]
	_, st := firstOwnedBy(t, front, owner)

	hreq, _ := http.NewRequest(http.MethodDelete, front.url+"/api/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var got serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("DELETE via %s: %s (%v)", front.id, resp.Status, err)
	}
	if got.Node != owner.id {
		t.Fatalf("cancel answered node %q, want %q", got.Node, owner.id)
	}
	fin := waitTerminal(t, front.url, st.ID, 10*time.Second)
	if fin.State != serve.StateCanceled {
		t.Fatalf("cancelled job settled %s, want %s", fin.State, serve.StateCanceled)
	}
}

// TestOversizedBodiesRejected sends a valid submission and a valid
// heartbeat, each padded past its cap: each gets a 4xx, and the node stays
// ready and serving.
func TestOversizedBodiesRejected(t *testing.T) {
	node := startCluster(t, 1, nil)[0]
	for _, c := range []struct {
		path, head string
		limit      int
	}{
		{"/api/v1/jobs", `{"experiment": "fig2"`, 1 << 20},
		{"/api/v1/cluster/heartbeat", `{"from": "n1"`, 8 << 20},
	} {
		body := c.head + strings.Repeat(" ", c.limit) + "}"
		resp, err := http.Post(node.url+c.path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("POST %s with a %d-byte body: %s, want 4xx", c.path, len(body), resp.Status)
		}
	}
	if code := getJSON(t, node.url+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after oversized bodies: HTTP %d", code)
	}
	waitDone(t, node.url, submitVia(t, node.url, serve.SubmitRequest{Experiment: "fig2"}).ID)
}

// TestPeerFetchReadThrough pins the replication path: a digest computed on
// one node is served on another without recomputing — the second node's
// disk miss falls through to a verified peer fetch, replicates locally,
// and reports a store hit.
func TestPeerFetchReadThrough(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	req := serve.SubmitRequest{Experiment: "fig2"}

	first := submitPinned(t, nodes[0].url, req)
	waitDone(t, nodes[0].url, first.ID)
	if got := nodes[0].computes.Load(); got != 1 {
		t.Fatalf("first node computed %d times, want 1", got)
	}

	second := submitPinned(t, nodes[1].url, req)
	done := waitDone(t, nodes[1].url, second.ID)
	if !done.FromStore {
		t.Fatalf("second node's job not served from store: %+v", done)
	}
	if got := nodes[1].computes.Load(); got != 0 {
		t.Fatalf("second node computed %d times, want 0 (peer fetch)", got)
	}
	want := output(req.Job().Canonical())
	if got := fetchResult(t, nodes[1].url, second.ID); got != want {
		t.Fatalf("peer-fetched result %q, want %q", got, want)
	}
	if v := metricValue(metricsText(t, nodes[1].url), "sgxd_peer_fetches_total"); v < 1 {
		t.Fatalf("sgxd_peer_fetches_total = %v, want >= 1", v)
	}
}

// TestPeerFetchBitflipSelfHeals is the corruption acceptance bar: a bit
// flipped in transit fails the checksum verification, the fetch counts as
// a miss, the node recomputes locally, and the poisoned bytes never reach
// the client or the cache.
func TestPeerFetchBitflipSelfHeals(t *testing.T) {
	// Every fetch corrupts (no Times bound): the scheduler probes the
	// store at admit and again at run, and a once-only flip would let the
	// second, clean fetch self-heal without the recompute this test pins.
	inj := faultline.New(faultline.Spec{Rules: []faultline.Rule{{
		Op: "cluster.peer.body", Kind: faultline.KindBitflip,
	}}})
	nodes := startCluster(t, 2, func(i int) nodeOpts {
		if i == 1 {
			return nodeOpts{faults: inj}
		}
		return nodeOpts{}
	})
	req := serve.SubmitRequest{Experiment: "fig1"}
	want := output(req.Job().Canonical())

	first := submitPinned(t, nodes[0].url, req)
	waitDone(t, nodes[0].url, first.ID)

	second := submitPinned(t, nodes[1].url, req)
	waitDone(t, nodes[1].url, second.ID)
	if got := fetchResult(t, nodes[1].url, second.ID); got != want {
		t.Fatalf("self-heal served %q, want %q", got, want)
	}
	if got := nodes[1].computes.Load(); got != 1 {
		t.Fatalf("second node computed %d times, want 1 (corrupt fetch must recompute)", got)
	}
	text := metricsText(t, nodes[1].url)
	if v := metricValue(text, "sgxd_cluster_peer_corrupt_total"); v < 1 {
		t.Fatalf("sgxd_cluster_peer_corrupt_total = %v, want >= 1", v)
	}
	// The LRU must hold the healed bytes, not the poisoned ones: a second
	// fetch (memory hit now) returns identical bytes.
	if got := fetchResult(t, nodes[1].url, second.ID); got != want {
		t.Fatalf("post-heal cache served %q, want %q", got, want)
	}
}

// TestDeadNodeRecoveryExactlyOnce is the headline chaos property in
// process form: a node holding unsettled jobs dies silently; after
// DeadAfter missed heartbeats the elected survivor re-enqueues exactly
// its piggybacked pending set — once — and the jobs settle byte-identical
// on the survivors.
func TestDeadNodeRecoveryExactlyOnce(t *testing.T) {
	nodes := startCluster(t, 3, func(i int) nodeOpts {
		if i == 2 {
			return nodeOpts{workers: 2, gated: true} // both jobs run wedged: unsettled
		}
		return nodeOpts{}
	})
	doomed, survivors := nodes[2], nodes[:2]

	specs := distinctSpecs(2)
	for _, req := range specs {
		submitPinned(t, doomed.url, req)
	}
	// Wait until beats have carried the full pending set to both survivors
	// (a fixed sleep flakes when the suite saturates the CPU): recovery can
	// only adopt what the heartbeats delivered before the silence.
	deadline := time.Now().Add(10 * time.Second)
	for {
		carried := 0
		for _, n := range survivors {
			for _, row := range clusterStatus(t, n.url).Nodes {
				if row.ID == doomed.id && row.Pending == len(specs) {
					carried++
				}
			}
		}
		if carried == len(survivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeats never carried the doomed node's pending set")
		}
		time.Sleep(20 * time.Millisecond)
	}

	doomed.stop() // Abort + listener close: no goodbye, like SIGKILL

	deadline = time.Now().Add(10 * time.Second)
	for {
		dead := 0
		for _, n := range survivors {
			for _, row := range clusterStatus(t, n.url).Nodes {
				if row.ID == doomed.id && !row.Alive {
					dead++
				}
			}
		}
		if dead == len(survivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never declared the killed node dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	recovered := func() []serve.JobStatus {
		var out []serve.JobStatus
		for _, n := range survivors {
			var list []serve.JobStatus
			getJSON(t, n.url+"/api/v1/jobs", &list)
			for _, st := range list {
				if st.RecoveredFrom == doomed.id {
					out = append(out, st)
				}
			}
		}
		return out
	}
	for {
		if len(recovered()) >= len(specs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered %d of %d jobs", len(recovered()), len(specs))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Exactly once: several more reap cycles must not re-adopt.
	time.Sleep(300 * time.Millisecond)
	adopted := recovered()
	if len(adopted) != len(specs) {
		t.Fatalf("adopted %d jobs from the dead node, want exactly %d", len(adopted), len(specs))
	}
	wantByKey := map[string]string{}
	for _, req := range specs {
		wantByKey[req.StoreKey()] = output(req.Job().Canonical())
	}
	for _, st := range adopted {
		var base string
		for _, n := range survivors {
			if n.id == st.Node {
				base = n.url
			}
		}
		if base == "" {
			t.Fatalf("recovered job %s settled on %q, not a survivor", st.ID, st.Node)
		}
		done := waitDone(t, base, st.ID)
		if got := fetchResult(t, base, done.ID); got != wantByKey[st.Key] {
			t.Fatalf("recovered job %s: %q, want %q", st.ID, got, wantByKey[st.Key])
		}
	}
}

// TestClusterEndpointsDisabledSingleNode pins the non-cluster behaviour:
// a daemon started without -peers serves 404 on every cluster endpoint.
func TestClusterEndpointsDisabledSingleNode(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 1,
		Compute: func(ctx context.Context, spec bench.Job) (*serve.ResultBundle, error) {
			return &serve.ResultBundle{Output: output(spec)}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Abort() })
	if code := getJSON(t, ts.URL+"/api/v1/cluster/status", nil); code != http.StatusNotFound {
		t.Fatalf("cluster status on single node: HTTP %d, want 404", code)
	}
	// Ordinary submissions still work, without a node stamp.
	stj := submitVia(t, ts.URL, serve.SubmitRequest{Experiment: "fig2"})
	if stj.Node != "" {
		t.Fatalf("single-node job carries node stamp %q", stj.Node)
	}
	waitDone(t, ts.URL, stj.ID)
}
