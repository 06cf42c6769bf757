package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// wirePair is two unstarted clusters of the same two-node membership: srv
// ("n2") answers on a real listener through Register, and cli ("n1")
// drives the real client calls against it.
type wirePair struct {
	cli, srv *Cluster
	peer     Node // srv as cli sees it
	url      string
}

func newWirePair(t *testing.T, faults *faultline.Injector) *wirePair {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	nodes := []Node{{ID: "n1", Addr: "http://127.0.0.1:1"}, {ID: "n2", Addr: ts.URL}}
	srv, err := New(Config{Self: "n2", Nodes: nodes, Local: nopLocal{}, Store: tempStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(mux)
	cli, err := New(Config{Self: "n1", Nodes: nodes, Local: nopLocal{}, Store: tempStore(t), Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	// Mark n2 alive, as its heartbeats would, so placement considers it
	// (no loop is running).
	cli.mu.Lock()
	cli.peers["n2"].alive = true
	cli.peers["n2"].lastSeen = time.Now()
	cli.mu.Unlock()
	return &wirePair{cli: cli, srv: srv, peer: nodes[1], url: ts.URL}
}

// testKey is a valid store key (lower-case hex) derived from s.
func testKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// putResult stores body under key at the running simulator version and
// returns its verified envelope.
func putResult(t *testing.T, st *store.Store, key string, body []byte) ResultEnvelope {
	t.Helper()
	if err := st.Put(key, body, store.Meta{Version: bench.SimVersion}); err != nil {
		t.Fatal(err)
	}
	body, meta, ok := st.Get(key, bench.SimVersion)
	if !ok {
		t.Fatalf("stored %s does not read back", key)
	}
	return ResultEnvelope{Meta: meta, Body: body}
}

// ownedBy returns a store key that c's ring places on node.
func ownedBy(t *testing.T, c *Cluster, node string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		if key := testKey(fmt.Sprint("key-", i)); c.ownerOf(key) == node {
			return key
		}
	}
	t.Fatalf("no probe key hashed to %s", node)
	return ""
}

// TestPeerWireRoundTrips drives every client call of the peer protocol
// against the handlers Register mounts, over a real listener.
func TestPeerWireRoundTrips(t *testing.T) {
	w := newWirePair(t, nil)

	t.Run("heartbeat", func(t *testing.T) {
		ack, err := w.cli.postBeat(w.peer, w.cli.selfBeat())
		if err != nil {
			t.Fatal(err)
		}
		if ack.From != "n2" || ack.Nonce != w.srv.nonce {
			t.Fatalf("answering beat from %q (nonce %q), want n2 (%q)", ack.From, ack.Nonce, w.srv.nonce)
		}
		w.srv.mu.Lock()
		nonce := w.srv.peers["n1"].nonce
		w.srv.mu.Unlock()
		if nonce != w.cli.nonce {
			t.Fatalf("receiver recorded n1's nonce as %q, want %q", nonce, w.cli.nonce)
		}
	})

	t.Run("fetch", func(t *testing.T) {
		key := testKey("fetch")
		putResult(t, w.srv.store, key, []byte("fetched bytes\n"))
		body, meta, ok := w.cli.fetchFrom(w.peer, key, bench.SimVersion)
		if !ok || string(body) != "fetched bytes\n" || meta.Key != key {
			t.Fatalf("fetch hit = (%q, %+v, %v)", body, meta, ok)
		}
		if _, _, ok := w.cli.fetchFrom(w.peer, testKey("absent"), bench.SimVersion); ok {
			t.Fatal("fetch of an absent key hit")
		}
		if _, _, ok := w.cli.fetchFrom(w.peer, key, "another-version"); ok {
			t.Fatal("fetch of a stored key at another version hit")
		}
	})

	t.Run("push", func(t *testing.T) {
		key := testKey("push")
		env := putResult(t, w.cli.store, key, []byte("pushed bytes\n"))
		if stored, err := w.cli.pushResult(w.peer, env); err != nil || !stored {
			t.Fatalf("first push = (%v, %v), want stored", stored, err)
		}
		if body, _, ok := w.srv.store.Get(key, bench.SimVersion); !ok || string(body) != "pushed bytes\n" {
			t.Fatalf("receiver holds %q (ok=%v) after the push", body, ok)
		}
		if stored, err := w.cli.pushResult(w.peer, env); err != nil || stored {
			t.Fatalf("repeat push = (%v, %v), want stored=false", stored, err)
		}

		old := putResult(t, w.cli.store, testKey("old"), []byte("old bytes\n"))
		old.Meta.Version = "another-version"
		if stored, err := w.cli.pushResult(w.peer, old); err != nil || stored {
			t.Fatalf("push at another version = (%v, %v), want stored=false", stored, err)
		}
		if _, ok := w.srv.store.Stat(old.Meta.Key); ok {
			t.Fatal("receiver stored an envelope for another simulator version")
		}

		bad := putResult(t, w.cli.store, testKey("bad"), []byte("honest bytes\n"))
		bad.Body = []byte("forged bytes\n") // same length, wrong SHA-256
		_, err := w.cli.pushResult(w.peer, bad)
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("push of a forged envelope: err = %v, want a 400", err)
		}
		if _, ok := w.srv.store.Stat(bad.Meta.Key); ok {
			t.Fatal("receiver stored an envelope that failed verification")
		}
	})

	t.Run("join", func(t *testing.T) {
		v, err := w.cli.postJoin(w.url, Node{ID: "n3", Addr: "http://127.0.0.1:3"}, 41)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.find("n3"); !ok || v.Epoch <= 41 {
			t.Fatalf("join view = %+v, want n3 at an epoch past 41", v)
		}
	})

	t.Run("join seed unreachable", func(t *testing.T) {
		resp, err := http.Post(w.url+"/api/v1/cluster/join", "application/json",
			strings.NewReader(`{"seed": "http://127.0.0.1:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("operator join via an unreachable seed: %s, want 502", resp.Status)
		}
	})
}

// TestRereplicationPushBound pins the push retry bound: a key whose push
// fails is retried on the next tick, at most pushAttempts times in a row,
// and then skipped so the scan completes.
func TestRereplicationPushBound(t *testing.T) {
	for _, tc := range []struct {
		failures int
		pushed   bool
	}{
		{failures: pushAttempts - 1, pushed: true},
		{failures: pushAttempts, pushed: false},
	} {
		t.Run(fmt.Sprint(tc.failures, " failures"), func(t *testing.T) {
			inj := faultline.New(faultline.Spec{Rules: []faultline.Rule{{
				Op: "cluster.peer.replicate", Kind: faultline.KindError, Times: tc.failures,
			}}})
			w := newWirePair(t, inj)
			key := ownedBy(t, w.cli, "n2")
			putResult(t, w.cli.store, key, []byte("rebalanced bytes\n"))
			w.cli.mu.Lock()
			w.cli.rebal = &rebalanceScan{}
			w.cli.mu.Unlock()

			for tick := 1; tick < pushAttempts; tick++ {
				w.cli.rebalanceOnce()
				if !w.cli.Rebalancing() {
					t.Fatalf("tick %d: scan finished with the push still failing", tick)
				}
				if _, ok := w.srv.store.Stat(key); ok {
					t.Fatalf("tick %d: owner holds the key through an injected push failure", tick)
				}
			}
			w.cli.rebalanceOnce()
			if w.cli.Rebalancing() {
				t.Fatalf("tick %d: scan still running", pushAttempts)
			}
			if _, ok := w.srv.store.Stat(key); ok != tc.pushed {
				t.Fatalf("after tick %d the owner holds the key = %v, want %v", pushAttempts, ok, tc.pushed)
			}
		})
	}
}

// TestFetchFaultIsMiss arms cluster.peer.fetch: the read-through misses
// even though a live peer holds the result, so the caller recomputes.
func TestFetchFaultIsMiss(t *testing.T) {
	inj := faultline.New(faultline.Spec{Seed: 7, Rules: []faultline.Rule{{
		Op: "cluster.peer.fetch", Kind: faultline.KindError,
	}}})
	w := newWirePair(t, inj)
	key := testKey("faulted")
	putResult(t, w.srv.store, key, []byte("held by n2\n"))
	if _, _, ok := w.cli.FetchResult(key, bench.SimVersion); ok {
		t.Fatal("injected fetch fault returned a result")
	}
}

// TestForwardRetryUnreachableOwnerFallsBack forwards to an owner nothing
// listens for: ForwardRetry tells the caller to admit locally, and counts
// one fallback.
func TestForwardRetryUnreachableOwnerFallsBack(t *testing.T) {
	metrics := telemetry.NewRegistry()
	c, err := New(Config{
		Self: "n1",
		// n2's address points at a port nothing listens on.
		Nodes:   []Node{{ID: "n1", Addr: "http://127.0.0.1:1"}, {ID: "n2", Addr: "http://127.0.0.2:9"}},
		Local:   nopLocal{},
		Store:   tempStore(t),
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.client.Timeout = 200 * time.Millisecond
	c.mu.Lock()
	c.peers["n2"].alive = true
	c.peers["n2"].lastSeen = time.Now()
	c.mu.Unlock()

	var req sched.SubmitRequest
	for i := 1; i <= 64 && req.Experiment == ""; i++ {
		probe := sched.SubmitRequest{Experiment: "fig7", Threads: i}
		if node, local := c.Route(probe.StoreKey(), false); !local && node == "n2" {
			req = probe
		}
	}
	if req.Experiment == "" {
		t.Fatal("no probe spec was placed on n2")
	}
	_, _, err = c.ForwardRetry("n2", "t", req, "")
	if err == nil || isRejection(err) {
		t.Fatalf("ForwardRetry to an unreachable owner: err = %v, want a fallback", err)
	}
	if got := metrics.Counter("cluster.forward_fallback").Value(); got != 1 {
		t.Fatalf("cluster.forward_fallback = %d, want 1", got)
	}
}
