// Process-level cluster chaos: three real sgxd binaries joined by -peers,
// one SIGKILLed mid-figure. The acceptance bar from the issue: survivors
// declare the death, re-enqueue the dead node's journaled pending jobs
// exactly once, and the recovered figure is byte-identical to a direct
// sgxbench run. Gated behind SGXD_CHAOS=1 like the single-node crash
// suite — it builds a binary and burns real simulation time.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve"
)

func chaosEnabled(t *testing.T) {
	t.Helper()
	if os.Getenv("SGXD_CHAOS") != "1" {
		t.Skip("set SGXD_CHAOS=1 to run cluster chaos tests")
	}
}

func buildSgxd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sgxd")
	cmd := exec.Command("go", "build", "-o", bin, "sgxbounds/cmd/sgxd")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sgxd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// chaosNode is one real sgxd process in the membership.
type chaosNode struct {
	id   string
	addr string // host:port
	url  string
	dir  string // store + journal root, reused across restarts
	cmd  *exec.Cmd
}

// startChaosCluster launches n sgxd processes with a shared -peers list
// and waits for every /readyz.
func startChaosCluster(t *testing.T, bin string, n int) []*chaosNode {
	t.Helper()
	nodes := make([]*chaosNode, n)
	specParts := make([]string, n)
	for i := range nodes {
		addr := freeAddr(t)
		id := fmt.Sprintf("n%d", i+1)
		nodes[i] = &chaosNode{id: id, addr: addr, url: "http://" + addr}
		specParts[i] = id + "=http://" + addr
	}
	peers := strings.Join(specParts, ",")
	for _, node := range nodes {
		node.dir = t.TempDir()
		launchChaosNode(t, bin, node, "-peers", peers)
	}
	for _, node := range nodes {
		waitReady(t, node.url)
	}
	return nodes
}

// launchChaosNode starts (or restarts) one sgxd process on its recorded
// addr, store, and journal, plus the given membership flags (-peers at
// first boot, -join on a rejoin).
func launchChaosNode(t *testing.T, bin string, node *chaosNode, membership ...string) {
	t.Helper()
	args := []string{
		"-addr", node.addr,
		"-store", filepath.Join(node.dir, "store"),
		"-journal", filepath.Join(node.dir, "journal.jsonl"),
		"-node-id", node.id,
		"-heartbeat", "100ms",
		"-dead-after", "3",
	}
	args = append(args, membership...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	node.cmd = cmd
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sgxd at %s never became ready", base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterChaosSIGKILLConvergesByteIdentical is the headline run: a
// fig1 lands on its owner, the owner dies mid-sweep without ceremony, the
// survivors adopt the journaled job exactly once, and the recovered
// figure — fetched through a survivor — is byte-identical to sgxbench.
func TestClusterChaosSIGKILLConvergesByteIdentical(t *testing.T) {
	chaosEnabled(t)
	bin := buildSgxd(t)
	nodes := startChaosCluster(t, bin, 3)

	byID := map[string]*chaosNode{}
	for _, n := range nodes {
		byID[n.id] = n
	}

	// Submit through n1; route-or-serve stamps the owner.
	req := serve.SubmitRequest{Experiment: "fig1"}
	st := submitVia(t, nodes[0].url, req)
	owner, ok := byID[st.Node]
	if !ok {
		t.Fatalf("job stamped with unknown node %q", st.Node)
	}
	t.Logf("fig1 owned by %s (job %s)", owner.id, st.ID)

	// Let it run for real before the kill, so the job is mid-sweep and its
	// pending spec has ridden several heartbeats to the survivors.
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := jobStatusVia(t, owner.url, st.ID)
		if err == nil && js.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running on its owner")
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(2 * time.Second)
	if err := owner.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	owner.cmd.Wait()

	var survivors []*chaosNode
	for _, n := range nodes {
		if n != owner {
			survivors = append(survivors, n)
		}
	}

	// Survivors must declare the death.
	deadline = time.Now().Add(30 * time.Second)
	for {
		dead := 0
		for _, n := range survivors {
			for _, row := range clusterStatus(t, n.url).Nodes {
				if row.ID == owner.id && !row.Alive {
					dead++
				}
			}
		}
		if dead == len(survivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never declared the killed owner dead")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Exactly one adopted job must appear across the survivors and run to
	// done; fig1 is real simulation, so be generous.
	adopted := func() []serve.JobStatus {
		var out []serve.JobStatus
		for _, n := range survivors {
			var list []serve.JobStatus
			getJSON(t, n.url+"/api/v1/jobs", &list)
			for _, js := range list {
				if js.RecoveredFrom == owner.id {
					out = append(out, js)
				}
			}
		}
		return out
	}
	deadline = time.Now().Add(time.Minute)
	for len(adopted()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no survivor adopted the dead owner's job")
		}
		time.Sleep(100 * time.Millisecond)
	}
	jobs := adopted()
	if len(jobs) != 1 {
		t.Fatalf("adopted %d jobs, want exactly 1: %+v", len(jobs), jobs)
	}
	rec := jobs[0]
	var recBase string
	for _, n := range survivors {
		if n.id == rec.Node {
			recBase = n.url
		}
	}
	if recBase == "" {
		t.Fatalf("recovered job on %q, not a survivor", rec.Node)
	}
	fin := waitDoneFor(t, recBase, rec.ID, 5*time.Minute)

	// Still exactly one after several more reap cycles.
	time.Sleep(time.Second)
	if again := adopted(); len(again) != 1 {
		t.Fatalf("adoption count moved to %d after settling, want 1", len(again))
	}

	// Byte identity, against sgxbench directly and across both survivors.
	var want bytes.Buffer
	if err := bench.RunJob(bench.NewEngine(0), bench.Job{Experiment: "fig1"}, &want, nil); err != nil {
		t.Fatal(err)
	}
	got := fetchResult(t, recBase, fin.ID)
	if got != want.String() {
		t.Error("recovered fig1 differs from direct sgxbench output")
	}
	// A fresh submission through the other survivor must route/peer-fetch
	// to the same bytes without recomputing a cell (FromStore).
	other := survivors[0]
	if other.url == recBase {
		other = survivors[1]
	}
	re := submitVia(t, other.url, req)
	fin2 := waitDoneFor(t, other.url, re.ID, time.Minute)
	if !fin2.FromStore {
		t.Errorf("post-recovery resubmission recomputed (FromStore=false): %+v", fin2)
	}
	if got2 := fetchResult(t, other.url, re.ID); got2 != want.String() {
		t.Error("resubmitted fig1 differs across survivors")
	}

	// The cluster counters exist on /metrics with the contract names.
	text := metricsText(t, recBase)
	for _, name := range []string{"sgxd_peer_fetches_total", "sgxd_cluster_jobs_recovered_total"} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestClusterChaosRollingRestartZeroLoss is the churn acceptance bar: each
// of the three nodes in turn is SIGKILLed and rejoined (same identity,
// same store and journal, `-join` against a survivor) while cheap distinct
// grid specs keep arriving. Every submission must be admitted (no non-429
// 5xx — postSubmit fatals on anything but 201), every spec must resolve
// byte-identical to a direct sgxbench run, results must come from the
// fleet store rather than recomputation, and a second identical read sweep
// must need zero additional peer fetches.
func TestClusterChaosRollingRestartZeroLoss(t *testing.T) {
	chaosEnabled(t)
	bin := buildSgxd(t)
	nodes := startChaosCluster(t, bin, 3)

	gridSpec := func(i int) serve.SubmitRequest {
		return serve.SubmitRequest{Experiment: "grid", Workloads: []string{"histogram"},
			Policies: []string{"sgxbounds"}, Size: "XS", Threads: 1 + i}
	}
	var specs []serve.SubmitRequest
	submitBatch := func(front *chaosNode, n int) {
		for i := 0; i < n; i++ {
			req := gridSpec(len(specs))
			specs = append(specs, req)
			submitVia(t, front.url, req)
		}
	}
	waitDeadOn := func(live []*chaosNode, deadID string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			declared := 0
			for _, n := range live {
				for _, row := range clusterStatus(t, n.url).Nodes {
					if row.ID == deadID && !row.Alive {
						declared++
					}
				}
			}
			if declared == len(live) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("survivors never declared %s dead", deadID)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	waitFleetConverged := func() {
		deadline := time.Now().Add(60 * time.Second)
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
				if len(st.Nodes) != 3 || alive != 3 {
					settled = false
				}
			}
			if settled {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("fleet never reconverged after a rejoin")
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	submitBatch(nodes[0], 6) // steady-state working set before any churn

	for i, victim := range nodes {
		seed := nodes[(i+1)%len(nodes)]
		t.Logf("rolling restart: killing %s, rejoin via %s", victim.id, seed.id)
		if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		victim.cmd.Wait()
		var live []*chaosNode
		for _, n := range nodes {
			if n != victim {
				live = append(live, n)
			}
		}
		// Load during the death window: forwards to the victim fail, the
		// bounded retry re-routes or falls back local, and every submit
		// still lands 201.
		submitBatch(seed, 2)
		waitDeadOn(live, victim.id)
		submitBatch(seed, 2)

		launchChaosNode(t, bin, victim, "-join", seed.url)
		waitReady(t, victim.url)
		waitFleetConverged()
		submitBatch(seed, 1)
	}

	// Let every queue drain (journal-replayed jobs included) before the
	// verification sweeps.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		busy := false
		for _, n := range nodes {
			for _, row := range clusterStatus(t, n.url).Nodes {
				if row.Self && (row.Queued > 0 || row.Pending > 0) {
					busy = true
				}
			}
		}
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet queues never drained after the rolling restart")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Zero lost work, byte-identical: every spec resolves from the fleet
	// store through n1, matching a direct in-process sgxbench run.
	engine := bench.NewEngine(0)
	sweep := func() {
		for _, req := range specs {
			st := submitVia(t, nodes[0].url, req)
			fin := waitDoneFor(t, nodes[0].url, st.ID, 2*time.Minute)
			if !fin.FromStore {
				t.Fatalf("spec %+v recomputed after churn (FromStore=false): its result was lost", req)
			}
			var want bytes.Buffer
			if err := bench.RunJob(engine, req.Job(), &want, nil); err != nil {
				t.Fatal(err)
			}
			if got := fetchResult(t, nodes[0].url, st.ID); got != want.String() {
				t.Fatalf("spec %+v differs from direct sgxbench output after churn", req)
			}
		}
	}
	sweep()

	// The first sweep left n1 a verified copy of every result it fetched,
	// so a second identical sweep is local: the peer-fetch rate drops to
	// zero.
	fetchesBefore := 0.0
	for _, n := range nodes {
		fetchesBefore += metricValue(metricsText(t, n.url), "sgxd_peer_fetches_total")
	}
	sweep()
	fetchesAfter := 0.0
	for _, n := range nodes {
		fetchesAfter += metricValue(metricsText(t, n.url), "sgxd_peer_fetches_total")
	}
	if fetchesAfter > fetchesBefore {
		t.Fatalf("post-churn peer-fetch rate did not drop: %v new fetches on an owner-local sweep",
			fetchesAfter-fetchesBefore)
	}
}

func jobStatusVia(t *testing.T, base, id string) (serve.JobStatus, error) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
