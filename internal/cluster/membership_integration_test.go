// Membership-churn integration tests: join under load, graceful leave
// with result evacuation, the epoch-race exactly-once property, and
// fleet-wide quarantine visibility. Same in-process harness as
// integration_test.go — real serve.Servers over real listeners, a
// deterministic compute stub as the byte-identity oracle.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"sgxbounds/internal/cluster"
	"sgxbounds/internal/serve"
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
// fatals on non-done; quarantine tests need the parked state back).
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

// TestJoinRereplicatesAndServes drives dynamic membership end to end: a
// 2-node fleet computes a working set, a third node joins through the
// seed's join endpoint, every node converges on a bumped epoch with three
// live members, the old owners push the keys the newcomer now owns
// (sgxd_rereplicated_total), and reads through the newcomer are
// byte-identical without a single recompute.
func TestJoinRereplicatesAndServes(t *testing.T) {
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

	// Rebalance: with 18 distinct keys and a third of the ring now owned
	// by n3, the old owners must push at least one verified copy.
	deadline := time.Now().Add(10 * time.Second)
	for sumMetric(t, nodes, "sgxd_rereplicated_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no result was re-replicated to the joined node")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every pre-join result is served through the newcomer from the fleet
	// store — pushed copy or peer read-through, never a recompute.
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
	if got := joiner.computes.Load(); got != 0 {
		t.Fatalf("joiner computed %d times, want 0 (everything was already in the fleet store)", got)
	}
}

// TestGracefulLeaveEvacuatesResults pins the leave protocol: a departing
// node hands off its queue, drains its rebalance scan (pushing every
// result it holds to the ring that no longer includes it), and only then
// departs. After the node is gone — process stopped, store unreachable —
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

// TestQuarantineFleetVisibilityAndRemoteRequeue pins cross-node
// quarantine: a job parked on one node shows up in every node's
// fleet-wide quarantine view via heartbeat gossip, a requeue issued
// against a *different* node proxies to the holder (the job ID names it),
// and the released job runs clean to the oracle bytes.
func TestQuarantineFleetVisibilityAndRemoteRequeue(t *testing.T) {
	nodes := startCluster(t, 3, func(i int) nodeOpts {
		if i == 1 {
			return nodeOpts{maxAttempts: 2, poison: 2} // both attempts panic → quarantine
		}
		return nodeOpts{}
	})
	holder, viewer := nodes[1], nodes[0]

	req := serve.SubmitRequest{Experiment: "table4"}
	st := submitPinned(t, holder.url, req)
	if fin := waitTerminal(t, holder.url, st.ID, 30*time.Second); fin.State != serve.StateQuarantined {
		t.Fatalf("poisoned job state = %s (%s), want quarantined", fin.State, fin.Error)
	}

	// The parked job must become visible from another node via gossip.
	findDigest := func() []serve.JobStatus {
		var rep cluster.QuarantineReport
		if code := getJSON(t, viewer.url+"/api/v1/cluster/quarantine", &rep); code != http.StatusOK {
			t.Fatalf("cluster quarantine: HTTP %d", code)
		}
		for _, n := range rep.Nodes {
			if n.ID == holder.id {
				return n.Jobs
			}
		}
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := findDigest()
		if len(jobs) == 1 && jobs[0].ID == st.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quarantined job never reached %s's fleet view: %+v", viewer.id, jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Requeue from the viewer: the request proxies to the holder, the
	// poison budget is exhausted, and the release runs clean.
	var rel struct {
		Quarantined serve.JobStatus `json:"quarantined"`
		Requeued    serve.JobStatus `json:"requeued"`
	}
	peerURL := viewer.url + "/api/v1/cluster/quarantine/" + holder.id + "/" + st.ID + "/requeue"
	if code := postJSON(t, peerURL, map[string]string{}, nil); code != http.StatusNotFound {
		t.Fatalf("POST %s: HTTP %d, want 404", peerURL, code)
	}
	if code := postJSON(t, viewer.url+"/api/v1/quarantine/"+st.ID+"/requeue", map[string]string{}, &rel); code != http.StatusOK {
		t.Fatalf("requeue via %s: HTTP %d", viewer.id, code)
	}
	if rel.Quarantined.RequeuedAs != rel.Requeued.ID {
		t.Fatalf("requeued_as = %q, want %q", rel.Quarantined.RequeuedAs, rel.Requeued.ID)
	}
	done := waitDone(t, holder.url, rel.Requeued.ID)
	want := output(req.Job().Canonical())
	if got := fetchResult(t, holder.url, done.ID); got != want {
		t.Fatalf("released job: %q, want %q", got, want)
	}

	// And the fleet view drains once the job is released.
	deadline = time.Now().Add(10 * time.Second)
	for len(findDigest()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("released job still in the fleet quarantine view")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
