package cluster

import (
	"fmt"
	"testing"
)

func allAlive(ids ...string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// keysFor owners n synthetic digests across the ring and returns the
// owner of each, plus a per-node tally.
func keysFor(r *ring, n int, alive map[string]bool, loads map[string]int) (owners []string, tally map[string]int) {
	owners = make([]string, n)
	tally = make(map[string]int)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("digest-%d", i)
		owners[i] = r.owner(key, alive, loads)
		tally[owners[i]]++
	}
	return owners, tally
}

func TestRingDeterministic(t *testing.T) {
	a := newRing([]string{"n1", "n2", "n3"})
	b := newRing([]string{"n3", "n1", "n2"}) // order must not matter
	alive := allAlive("n1", "n2", "n3")
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("digest-%d", i)
		if got, want := a.owner(key, alive, nil), b.owner(key, alive, nil); got != want {
			t.Fatalf("key %s: ring order changed the owner: %s vs %s", key, got, want)
		}
	}
}

func TestRingDistributionRoughlyFair(t *testing.T) {
	r := newRing([]string{"n1", "n2", "n3"})
	_, tally := keysFor(r, 9000, allAlive("n1", "n2", "n3"), nil)
	for id, n := range tally {
		// Fair share is 3000; 64 virtual nodes should keep every node
		// within a factor of ~2 of it.
		if n < 1500 || n > 4500 {
			t.Errorf("node %s owns %d of 9000 keys, outside [1500,4500]", id, n)
		}
	}
	if len(tally) != 3 {
		t.Fatalf("only %d nodes own keys: %v", len(tally), tally)
	}
}

func TestRingSkipsDeadNodes(t *testing.T) {
	r := newRing([]string{"n1", "n2", "n3"})
	alive := allAlive("n1", "n2", "n3")
	before, _ := keysFor(r, 2000, alive, nil)

	delete(alive, "n2")
	after, _ := keysFor(r, 2000, alive, nil)
	moved := 0
	for i := range after {
		if after[i] == "n2" {
			t.Fatalf("dead node n2 still owns digest-%d", i)
		}
		if before[i] != after[i] {
			moved++
			if before[i] != "n2" {
				t.Errorf("digest-%d moved from live node %s to %s", i, before[i], after[i])
			}
		}
	}
	// Consistent hashing: only n2's keys move.
	if moved == 0 {
		t.Fatal("no keys moved after a node death")
	}
}

func TestRingBoundedLoadSpillsOver(t *testing.T) {
	r := newRing([]string{"n1", "n2", "n3"})
	alive := allAlive("n1", "n2", "n3")

	// Find a key owned by some node with no load, then saturate that node:
	// the same key must spill to a different live node.
	key := "digest-spill"
	primary := r.owner(key, alive, nil)
	loads := map[string]int{primary: 1000}
	spilled := r.owner(key, alive, loads)
	if spilled == primary {
		t.Fatalf("key stayed on saturated node %s", primary)
	}
	if !alive[spilled] {
		t.Fatalf("spilled to dead node %s", spilled)
	}

	// With every node saturated equally, bounded load cannot help; the
	// walk must still terminate and land on the primary.
	for id := range alive {
		loads[id] = 1000
	}
	if got := r.owner(key, alive, loads); got != primary {
		t.Fatalf("uniformly saturated ring: owner %s, want primary %s", got, primary)
	}
}

func TestRingNoLiveNodes(t *testing.T) {
	r := newRing([]string{"n1", "n2"})
	if got := r.owner("k", map[string]bool{}, nil); got != "" {
		t.Fatalf("owner with no live nodes = %q, want empty", got)
	}
}

// TestRecovererElection pins the dead-node recovery rule: the recoverer is
// the first live node whose ID sorts after the dead node's, wrapping to
// the smallest. Exactly one live node elects itself.
func TestRecovererElection(t *testing.T) {
	nodes := []Node{
		{ID: "n1", Addr: "http://127.0.0.1:1"},
		{ID: "n2", Addr: "http://127.0.0.1:2"},
		{ID: "n3", Addr: "http://127.0.0.1:3"},
	}
	build := func(self string) *Cluster {
		c, err := New(Config{Self: self, Nodes: nodes, Local: nopLocal{}, Store: tempStore(t)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		dead      string
		deadAlso  string // second dead node ("" for none)
		recoverer string
	}{
		{dead: "n2", recoverer: "n3"},
		{dead: "n3", recoverer: "n1"}, // wraps
		{dead: "n3", deadAlso: "n1", recoverer: "n2"},
	}
	for _, tc := range cases {
		elected := []string{}
		for _, self := range []string{"n1", "n2", "n3"} {
			if self == tc.dead || self == tc.deadAlso {
				continue
			}
			c := build(self)
			c.mu.Lock()
			for id, ps := range c.peers {
				ps.alive = id != tc.dead && id != tc.deadAlso
			}
			if c.isRecovererLocked(tc.dead) {
				elected = append(elected, self)
			}
			c.mu.Unlock()
		}
		if len(elected) != 1 || elected[0] != tc.recoverer {
			t.Errorf("dead=%s(+%s): elected %v, want [%s]", tc.dead, tc.deadAlso, elected, tc.recoverer)
		}
	}
}
