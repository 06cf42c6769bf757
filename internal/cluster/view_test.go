package cluster

import (
	"testing"
	"time"

	"sgxbounds/internal/telemetry"
)

func testView(ids ...string) View {
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		nodes[i] = Node{ID: id, Addr: "http://" + id + ":1"}
	}
	return viewOf(nodes)
}

func TestPickViewHigherEpochWins(t *testing.T) {
	local := testView("n1", "n2")
	remote := testView("n1", "n2", "n3")
	remote.Epoch = 5
	got, changed := pickView(local, remote)
	if !changed || got.Epoch != 5 || len(got.Members) != 3 {
		t.Fatalf("pickView adopted %+v (changed=%v), want the epoch-5 remote", got, changed)
	}
	// And the mirror case: a lower-epoch remote never wins.
	if _, changed := pickView(remote, local); changed {
		t.Fatal("pickView adopted a lower epoch")
	}
}

func TestPickViewTieBreaksOnDigest(t *testing.T) {
	a := testView("n1", "n2", "n3")
	b := testView("n1", "n2", "n4")
	a.Epoch, b.Epoch = 7, 7
	// Whichever digest is larger must win from BOTH sides — that is what
	// makes concurrent epoch bumps converge instead of flap.
	_, aAdoptsB := pickView(a, b)
	_, bAdoptsA := pickView(b, a)
	if aAdoptsB == bAdoptsA {
		t.Fatalf("tie-break not antisymmetric: aAdoptsB=%v bAdoptsA=%v", aAdoptsB, bAdoptsA)
	}
}

func TestPickViewIgnoresEmptyRemote(t *testing.T) {
	local := testView("n1", "n2")
	if _, changed := pickView(local, View{}); changed {
		t.Fatal("pickView adopted a zero view")
	}
	if _, changed := pickView(local, View{Epoch: 99}); changed {
		t.Fatal("pickView adopted a memberless view")
	}
}

func TestViewChurnAlgebra(t *testing.T) {
	v := testView("n1", "n2")
	j := v.withJoined(Node{ID: "n3", Addr: "http://n3:1"})
	if j.Epoch != v.Epoch+1 || len(j.Members) != 3 {
		t.Fatalf("withJoined: %+v", j)
	}
	if ids := j.ringIDs(); len(ids) != 3 {
		t.Fatalf("ringIDs after join: %v", ids)
	}
	l := j.withLeaving("n3")
	if m, ok := l.find("n3"); !ok || !m.Leaving {
		t.Fatalf("withLeaving did not mark n3: %+v", l)
	}
	if ids := l.ringIDs(); len(ids) != 2 {
		t.Fatalf("a leaving member must be ring-excluded: %v", ids)
	}
	w := l.without("n3")
	if _, ok := w.find("n3"); ok || len(w.Members) != 2 || w.Epoch != l.Epoch+1 {
		t.Fatalf("without: %+v", w)
	}
	// Rejoin after restart refreshes the address in place.
	r := v.withJoined(Node{ID: "n2", Addr: "http://elsewhere:9"})
	if m, _ := r.find("n2"); m.Addr != "http://elsewhere:9" || len(r.Members) != 2 {
		t.Fatalf("rejoin did not refresh addr: %+v", r)
	}
}

func newViewTestCluster(t *testing.T, self string, ids ...string) *Cluster {
	t.Helper()
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		nodes[i] = Node{ID: id, Addr: "http://" + id + ":1"}
	}
	c, err := New(Config{Self: self, Nodes: nodes, Local: nopLocal{}, Store: tempStore(t), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMergeViewSelfAssert pins the convergence guard: a node that adopts
// a higher-epoch view omitting itself (it lost a concurrent membership
// race) must re-add itself under the next epoch rather than silently
// serving outside the ring.
func TestMergeViewSelfAssert(t *testing.T) {
	c := newViewTestCluster(t, "n1", "n1", "n2")
	remote := testView("n2", "n3")
	remote.Epoch = 9
	c.mu.Lock()
	c.mergeViewLocked(remote)
	v := c.view.clone()
	c.mu.Unlock()
	if v.Epoch != 10 {
		t.Fatalf("epoch = %d, want 10 (self-assert bumps past the adopted view)", v.Epoch)
	}
	if _, ok := v.find("n1"); !ok {
		t.Fatal("self missing from the merged view")
	}
	if _, ok := v.find("n3"); !ok {
		t.Fatal("merge dropped the remote's new member")
	}
}

// TestMergeViewInstallsPeersAndRing verifies installView side effects: new
// members become peers (with a liveness grace window), departed members
// are dropped, and the ring rebuilds to the new membership.
func TestMergeViewInstallsPeersAndRing(t *testing.T) {
	c := newViewTestCluster(t, "n1", "n1", "n2")
	remote := testView("n1", "n3") // n2 departed, n3 joined
	remote.Epoch = 2
	c.mu.Lock()
	c.mergeViewLocked(remote)
	_, hasOld := c.peers["n2"]
	ps, hasNew := c.peers["n3"]
	c.mu.Unlock()
	if hasOld {
		t.Fatal("departed n2 still in the peer table")
	}
	if !hasNew || !ps.alive || time.Since(ps.lastSeen) > time.Minute {
		t.Fatal("joined n3 missing from the peer table or without a liveness grace window")
	}
	// The rebuilt ring must place keys only on current members.
	for _, key := range []string{"a", "b", "c", "d", "e", "f"} {
		if owner := c.ownerOf(key); owner == "n2" {
			t.Fatalf("ring still places %q on departed n2", key)
		}
	}
}

// TestHandleJoinBumpsPastJoinerEpoch pins the anti-collapse rule: the
// admitting member always bumps the epoch beyond both its own and the
// joiner's, so a joiner's stale solo view can never tie (and win a digest
// race) against the fleet.
func TestHandleJoinBumpsPastJoinerEpoch(t *testing.T) {
	c := newViewTestCluster(t, "n1", "n1", "n2")
	v, err := c.admitJoin(Node{ID: "n3", Addr: "http://n3:1"}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 42 {
		t.Fatalf("epoch = %d, want 42 (max(local, joiner)+1)", v.Epoch)
	}
	if _, ok := v.find("n3"); !ok {
		t.Fatal("joiner missing from the returned view")
	}
	// Idempotent rejoin still bumps (same rule, no special case to get
	// subtly wrong).
	v2, err := c.admitJoin(Node{ID: "n3", Addr: "http://n3:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Epoch <= v.Epoch {
		t.Fatalf("rejoin did not bump the epoch: %d then %d", v.Epoch, v2.Epoch)
	}
}

func TestHandleJoinRejectsBadNodes(t *testing.T) {
	c := newViewTestCluster(t, "n1", "n1", "n2")
	if _, err := c.admitJoin(Node{ID: "", Addr: "http://x:1"}, 0); err == nil {
		t.Fatal("join admitted an empty ID")
	}
	if _, err := c.admitJoin(Node{ID: "n3", Addr: ""}, 0); err == nil {
		t.Fatal("join admitted an empty addr")
	}
	if _, err := c.admitJoin(Node{ID: "n1", Addr: "http://evil:1"}, 0); err == nil {
		t.Fatal("join admitted this node's own ID")
	}
	if _, err := c.admitJoin(Node{ID: "n3", Addr: "ftp://bad"}, 0); err == nil {
		t.Fatal("join admitted a non-http addr")
	}
}
