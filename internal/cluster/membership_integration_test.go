// Membership-churn integration tests: join under load, graceful leave
// with result evacuation, the epoch-race exactly-once property, and the
// start bound on adopted jobs. Same in-process harness as
// integration_test.go — real serve.Servers over real listeners, a
// deterministic compute stub as the byte-identity oracle.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sgxbounds/internal/cluster"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/sched"
)

// postJSON posts a JSON body and decodes the response, returning the code.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// joinFleet tells a running solo node to join the fleet at seed — the
// operator form of the join endpoint, exactly what `sgxctl cluster join`
// and `sgxd -join` drive.
func joinFleet(t *testing.T, joiner *testNode, seed *testNode) {
	t.Helper()
	if code := postJSON(t, joiner.url+"/api/v1/cluster/join", map[string]string{"seed": seed.url}, nil); code != http.StatusOK {
		t.Fatalf("join via %s: HTTP %d", seed.id, code)
	}
}

// sumMetric adds one counter across a set of nodes' /metrics.
func sumMetric(t *testing.T, nodes []*testNode, name string) float64 {
	t.Helper()
	var sum float64
	for _, n := range nodes {
		sum += metricValue(metricsText(t, n.url), name)
	}
	return sum
}

// waitTerminal polls until the job is terminal in any state (waitDone
// fatals on non-done; the start-bound test needs the failed state back).
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st serve.JobStatus
		code := getJSON(t, base+"/api/v1/jobs/"+id, &st)
		if code == http.StatusOK && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal (last HTTP %d, state %s)", id, code, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitBeats blocks until every node has sent at least n more heartbeats
// than when it was called. Each beat round runs in the loop's tick, so n
// beats per peer are n ticks of everything the loop does.
func waitBeats(t *testing.T, nodes []*testNode, n int) {
	t.Helper()
	const name = "sgxd_cluster_heartbeats_sent_total"
	start := make([]float64, len(nodes))
	for i, node := range nodes {
		start[i] = metricValue(metricsText(t, node.url), name)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, node := range nodes {
		for metricValue(metricsText(t, node.url), name) < start[i]+float64(n) {
			if time.Now().After(deadline) {
				t.Fatalf("%s sent fewer than %d heartbeats in 10s", node.id, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestJoinServesThroughPeerFetch drives dynamic membership end to end: a
// 2-node fleet computes a working set, a third node joins through the
// seed's join endpoint, and every node converges on a bumped epoch with
// three live members. The epoch change pushes nothing, not even after
// several heartbeat rounds: no node's sgxd_rereplicated_total moves. Reads
// through the newcomer pull what they need by peer fetch and are
// byte-identical without a single recompute.
func TestJoinServesThroughPeerFetch(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	specs := distinctSpecs(18)
	for _, req := range specs {
		st := submitVia(t, nodes[0].url, req)
		waitDone(t, nodes[0].url, st.ID)
	}
	epoch0 := clusterStatus(t, nodes[0].url).Epoch

	joiner := startSoloNode(t, "n3", nodeOpts{})
	joinFleet(t, joiner, nodes[0])
	all := append(append([]*testNode{}, nodes...), joiner)
	waitMembership(t, all)
	for _, n := range all {
		if e := clusterStatus(t, n.url).Epoch; e <= epoch0 {
			t.Fatalf("%s epoch = %d after join, want > %d", n.id, e, epoch0)
		}
	}
	// Four beats to each of two peers: four ticks of the old owners' loops
	// under the new epoch, in which a push armed by the join would have run.
	waitBeats(t, nodes, 8)

	// Every pre-join result is served through the newcomer from the fleet
	// store by peer fetch, never a recompute.
	for _, req := range specs {
		st := submitVia(t, joiner.url, req)
		done := waitDone(t, joiner.url, st.ID)
		if !done.FromStore {
			t.Fatalf("pre-join result %s recomputed after join: %+v", st.ID, done)
		}
		want := output(req.Job().Canonical())
		if got := fetchResult(t, joiner.url, st.ID); got != want {
			t.Fatalf("via joiner: %q, want %q", got, want)
		}
	}
	if got := sumMetric(t, all, "sgxd_rereplicated_total"); got != 0 {
		t.Fatalf("sgxd_rereplicated_total = %v across the fleet after a join, want 0: an epoch change pushed results", got)
	}
	if got := metricValue(metricsText(t, joiner.url), "sgxd_peer_fetches_total"); got == 0 {
		t.Fatal("the joiner served the working set without a peer fetch")
	}
	if got := joiner.computes.Load(); got != 0 {
		t.Fatalf("joiner computed %d times, want 0 (everything was already in the fleet store)", got)
	}
}

// TestGracefulLeaveEvacuatesResults pins the leave protocol: a departing
// node hands off its queue, waits for its running job, pushes every result
// it holds to its owner in the ring that no longer includes it, and only
// then departs. After the node is gone — process stopped, store unreachable —
// every spec the fleet ever computed still resolves from the survivors'
// stores without recomputation.
func TestGracefulLeaveEvacuatesResults(t *testing.T) {
	nodes := startCluster(t, 3, func(i int) nodeOpts {
		if i == 2 {
			return nodeOpts{gated: true} // the leaver: one wedged job plus a queue to hand off
		}
		return nodeOpts{}
	})
	leaver, survivors := nodes[2], nodes[:2]
	epoch0 := clusterStatus(t, survivors[0].url).Epoch

	// Working set spread over the survivors' stores.
	settled := distinctSpecs(6)
	for i, req := range settled {
		st := submitPinned(t, survivors[i%2].url, req)
		waitDone(t, survivors[i%2].url, st.ID)
	}
	// Unsettled work pinned on the leaver: one runs wedged behind the
	// gate, the rest queue behind it.
	queued := []serve.SubmitRequest{
		{Experiment: "fig7", Threads: 20},
		{Experiment: "fig7", Threads: 21},
		{Experiment: "fig7", Threads: 22},
	}
	for _, req := range queued {
		submitPinned(t, leaver.url, req)
	}

	if code := postJSON(t, leaver.url+"/api/v1/cluster/leave", map[string]string{}, nil); code != http.StatusAccepted {
		t.Fatalf("leave: HTTP %d, want 202", code)
	}
	leaver.release() // let the wedged job finish so the drain can settle

	deadline := time.Now().Add(20 * time.Second)
	for !clusterStatus(t, leaver.url).Departed {
		if time.Now().After(deadline) {
			t.Fatal("leaver never departed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Survivors converge on a post-leave view: higher epoch, two members,
	// no trace of the leaver.
	for {
		converged := true
		for _, n := range survivors {
			st := clusterStatus(t, n.url)
			if st.Epoch <= epoch0 || len(st.Nodes) != 2 {
				converged = false
			}
			for _, row := range st.Nodes {
				if row.ID == leaver.id {
					converged = false
				}
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never converged on the post-leave view")
		}
		time.Sleep(20 * time.Millisecond)
	}

	leaver.stop() // the departed node's store is now genuinely unreachable

	// Zero lost work: every spec — settled on survivors or handed off from
	// the leaver's queue — resolves from the fleet store, byte-identical.
	for _, req := range append(append([]serve.SubmitRequest{}, settled...), queued...) {
		st := submitVia(t, survivors[0].url, req)
		done := waitDoneFor(t, survivors[0].url, st.ID, 20*time.Second)
		if !done.FromStore {
			t.Fatalf("spec %+v recomputed after leave; its result was lost with the leaver", req)
		}
		want := output(req.Job().Canonical())
		if got := fetchResult(t, survivors[0].url, st.ID); got != want {
			t.Fatalf("post-leave result %q, want %q", got, want)
		}
	}
}

// TestEpochRaceSubmitsLandExactlyOnce hammers the submit path while the
// ring is being rebuilt under a join: every submission must land exactly
// once (no duplicate admission from the bounded forward retry, no loss
// from a mid-flight ownership flip) and settle byte-identical.
func TestEpochRaceSubmitsLandExactlyOnce(t *testing.T) {
	nodes := startCluster(t, 2, func(i int) nodeOpts { return nodeOpts{workers: 2} })
	joiner := startSoloNode(t, "n3", nodeOpts{workers: 2})

	specs := distinctSpecs(20)
	statuses := make([]serve.JobStatus, len(specs))
	fronts := make([]*testNode, len(specs))
	joinDone := make(chan error, 1)
	for i, req := range specs {
		fronts[i] = nodes[i%2]
		statuses[i] = submitVia(t, fronts[i].url, req)
		if i == 4 {
			// Join mid-stream: submissions 5..19 race the epoch bump and
			// ring rebuild on every node.
			go func() {
				raw, _ := json.Marshal(map[string]string{"seed": nodes[0].url})
				resp, err := http.Post(joiner.url+"/api/v1/cluster/join", "application/json", bytes.NewReader(raw))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("join: HTTP %d", resp.StatusCode)
					}
				}
				joinDone <- err
			}()
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-joinDone; err != nil {
		t.Fatal(err)
	}
	all := append(append([]*testNode{}, nodes...), joiner)
	waitMembership(t, all)

	keys := map[string]bool{}
	for i, req := range specs {
		keys[req.StoreKey()] = true
		done := waitDone(t, fronts[i].url, statuses[i].ID)
		want := output(req.Job().Canonical())
		if got := fetchResult(t, fronts[i].url, done.ID); got != want {
			t.Fatalf("spec %d: %q, want %q", i, got, want)
		}
	}

	// Exactly once: across the whole fleet there is one job per submission.
	total := 0
	for _, n := range all {
		var list []serve.JobStatus
		getJSON(t, n.url+"/api/v1/jobs", &list)
		for _, st := range list {
			if keys[st.Key] {
				total++
			}
		}
	}
	if total != len(specs) {
		t.Fatalf("fleet holds %d jobs for %d submissions: a submission was duplicated or lost during the epoch race",
			total, len(specs))
	}
}

// TestAdoptionCarriesStartCount: a dead node's unsettled jobs move to the
// survivors with their start counts, so a job that kills every node it
// starts on stops at MaxStarts fleet-wide instead of taking each node down
// in turn. A fake n3 heartbeats twelve pending jobs — six that have started
// MaxStarts-1 times, six that have started MaxStarts times — and dies. Its
// recoverer routes each job to its owner among n1 and n2, locally or by a
// forward. A job one start short of the bound reaches its owner's journal
// with its count and runs; one at the bound settles failed without a
// compute.
func TestAdoptionCarriesStartCount(t *testing.T) {
	var pending []sched.PendingJob
	for i := 1; i <= 12; i++ {
		attempts := serve.MaxStarts - 1
		if i > 6 {
			attempts = serve.MaxStarts
		}
		pending = append(pending, sched.PendingJob{
			ID:       fmt.Sprintf("n3-j%06d", i),
			Req:      serve.SubmitRequest{Experiment: "fig7", Threads: i},
			Attempts: attempts,
		})
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/cluster/heartbeat" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(cluster.Beat{From: "n3", Nonce: "n3-boot", Pending: pending, Unix: time.Now().Unix()})
	}))
	defer dead.Close()

	var listeners [2]net.Listener
	members := make([]cluster.Node, 3)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	members[2] = cluster.Node{ID: "n3", Addr: dead.URL}
	nodes := make([]*testNode, 2)
	for i := range nodes {
		nodes[i] = buildNode(t, listeners[i], members[i], members, nodeOpts{workers: 1, journal: true})
	}

	// Both survivors must hold n3's pending set before it dies.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		for _, n := range nodes {
			for _, row := range clusterStatus(t, n.url).Nodes {
				if row.ID == "n3" && (!row.Alive || row.Pending != len(pending)) {
					ready = false
				}
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never learned n3's pending jobs")
		}
		time.Sleep(10 * time.Millisecond)
	}
	dead.Close()

	// Every pending job is adopted exactly once, on n1 or n2.
	byKey := map[string]sched.PendingJob{}
	for _, pj := range pending {
		byKey[pj.Req.StoreKey()] = pj
	}
	type adopted struct {
		node *testNode
		st   serve.JobStatus
	}
	var got map[string]adopted
	deadline = time.Now().Add(15 * time.Second)
	for {
		got = map[string]adopted{}
		for _, n := range nodes {
			var list []serve.JobStatus
			getJSON(t, n.url+"/api/v1/jobs", &list)
			for _, st := range list {
				if st.RecoveredFrom != "n3" {
					continue
				}
				if prev, dup := got[st.Key]; dup {
					t.Fatalf("job for %s adopted twice: %s and %s", st.Key, prev.st.ID, st.ID)
				}
				got[st.Key] = adopted{n, st}
			}
		}
		settled := len(got) == len(pending)
		for _, a := range got {
			settled = settled && a.st.State.Terminal()
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d pending jobs adopted and settled", len(got), len(pending))
		}
		time.Sleep(10 * time.Millisecond)
	}

	holders := map[string]bool{}
	for key, a := range got {
		pj := byKey[key]
		holders[a.node.id] = true
		if pj.Attempts < serve.MaxStarts {
			if a.st.State != serve.StateDone || a.st.Attempts != pj.Attempts+1 {
				t.Errorf("%s (arrived at %d starts) = %s after %d starts, want done after %d", pj.ID, pj.Attempts, a.st.State, a.st.Attempts, pj.Attempts+1)
			}
		} else if a.st.State != serve.StateFailed || !strings.Contains(a.st.Error, fmt.Sprintf("started %d times", serve.MaxStarts)) {
			t.Errorf("%s (arrived at the bound) = %s (%q), want failed with its start count", pj.ID, a.st.State, a.st.Error)
		}
		if n := submittedAttempts(t, a.node.journal, a.st.ID); n != pj.Attempts {
			t.Errorf("%s: %s's journal records %d starts for %s, want %d", pj.ID, a.node.id, n, a.st.ID, pj.Attempts)
		}
	}
	if len(holders) != 2 {
		t.Errorf("adoptions landed only on %v; the test must cover both the local and the forwarded path", holders)
	}
	if c := nodes[0].computes.Load() + nodes[1].computes.Load(); c != 6 {
		t.Errorf("fleet computed %d times, want 6: only the jobs below the bound may run", c)
	}
}

// submittedAttempts reads the start count that a job's submitted record
// carries in a node's journal (-1 when the job has no submitted record).
func submittedAttempts(t *testing.T, path, id string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var rec struct {
			T        string `json:"t"`
			ID       string `json:"id"`
			Attempts int    `json:"attempts"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.T == "submitted" && rec.ID == id {
			return rec.Attempts
		}
	}
	return -1
}
