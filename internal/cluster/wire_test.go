package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	peer     Node           // srv as cli sees it
	mux      *http.ServeMux // srv's listener, for handlers Register does not mount
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
	return &wirePair{cli: cli, srv: srv, peer: nodes[1], mux: mux, url: ts.URL}
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

// routedTo returns a submission that c forwards to node.
func routedTo(t *testing.T, c *Cluster, node string) sched.SubmitRequest {
	t.Helper()
	for i := 1; i <= 64; i++ {
		req := sched.SubmitRequest{Experiment: "fig7", Threads: i}
		if to, local := c.route(req.StoreKey(), false); !local && to == node {
			return req
		}
	}
	t.Fatalf("no probe spec was routed to %s", node)
	return sched.SubmitRequest{}
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

// TestRereplicationPushBound pins the evacuation's push bound: a leaving
// node retries a failed push a heartbeat later, at most pushAttempts times
// in all, and then skips the key, so the pass returns either way.
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
			key := testKey("evacuated")
			putResult(t, w.cli.store, key, []byte("evacuated bytes\n"))
			w.cli.interval = time.Millisecond
			w.cli.mu.Lock()
			w.cli.leaving = true // the ring excludes n1, so n2 owns every key
			w.cli.mu.Unlock()

			if err := w.cli.evacuate(context.Background()); err != nil {
				t.Fatalf("evacuate = %v", err)
			}
			if _, ok := w.srv.store.Stat(key); ok != tc.pushed {
				t.Fatalf("after %d injected failures the owner holds the key = %v, want %v", tc.failures, ok, tc.pushed)
			}
			want := uint64(0)
			if tc.pushed {
				want = 1
			}
			if got := w.cli.rereplicated.Value(); got != want {
				t.Fatalf("sgxd_rereplicated_total = %d, want %d", got, want)
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

// TestForwardRoundTrip drives both ends of a forwarded submission: the
// start count and origin that forward writes come back unchanged through
// ReadForward on the receiving node. Without the forwarded mark the other
// two headers are ignored, and a start count that is not a non-negative
// integer reads as 0.
func TestForwardRoundTrip(t *testing.T) {
	w := newWirePair(t, nil)
	received := make(chan sched.SubmitRequest, 1)
	w.mux.HandleFunc("POST /api/v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		var req sched.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || !ReadForward(r.Header, &req) {
			writeError(rw, http.StatusBadRequest, "not a forwarded submission (%v)", err)
			return
		}
		received <- req
		writeJSON(rw, http.StatusCreated, sched.JobStatus{ID: "n2-j000001", Node: "n2"})
	})
	sent := sched.SubmitRequest{Experiment: "fig7", Threads: 3, EPCBytes: 2 << 20, Attempts: 2, RecoveredFrom: "n3"}
	st, _, err := w.cli.forward("n2", "acme", sent)
	if err != nil || st.ID != "n2-j000001" {
		t.Fatalf("forward = (%+v, %v), want n2's job", st, err)
	}
	if got := <-received; !reflect.DeepEqual(got, sent) {
		t.Fatalf("owner read back %+v, want %+v", got, sent)
	}

	for _, tc := range []struct {
		name      string
		hdr       http.Header
		forwarded bool
		want      sched.SubmitRequest
	}{
		{"unmarked", http.Header{attemptsHeader: {"2"}, recoveredHeader: {"n3"}}, false, sched.SubmitRequest{}},
		{"non-numeric start count", http.Header{forwardedHeader: {"n1"}, attemptsHeader: {"two"}, recoveredHeader: {"n3"}},
			true, sched.SubmitRequest{RecoveredFrom: "n3"}},
		{"negative start count", http.Header{forwardedHeader: {"n1"}, attemptsHeader: {"-1"}}, true, sched.SubmitRequest{}},
	} {
		var req sched.SubmitRequest
		if fwd := ReadForward(tc.hdr, &req); fwd != tc.forwarded || !reflect.DeepEqual(req, tc.want) {
			t.Errorf("%s: ReadForward = (%v, %+v), want (%v, %+v)", tc.name, fwd, req, tc.forwarded, tc.want)
		}
	}
}

// TestReplicaKeptOnlyInRing drives Submit against an owner that answers
// every forward from its store: the forwarding node keeps a verified
// replica, but not while it is leaving, when its submissions are handoffs
// of work it is giving away.
func TestReplicaKeptOnlyInRing(t *testing.T) {
	w := newWirePair(t, nil)
	w.mux.HandleFunc("POST /api/v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		var req sched.SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		key := req.StoreKey()
		writeJSON(rw, http.StatusCreated, sched.JobStatus{ID: "n2-k" + key, Key: key, Node: "n2", State: sched.StateDone, FromStore: true})
	})
	req := routedTo(t, w.cli, "n2")
	key := req.StoreKey()
	putResult(t, w.srv.store, key, []byte("held by n2\n"))
	submit := func() {
		t.Helper()
		if st, _, err := w.cli.Submit("t", req); err != nil || st.Node != "n2" {
			t.Fatalf("Submit = (%+v, %v), want n2's answer", st, err)
		}
	}

	w.cli.mu.Lock()
	w.cli.leaving = true
	w.cli.mu.Unlock()
	submit()
	if _, ok := w.cli.store.Stat(key); ok {
		t.Fatal("a leaving node kept a replica of a store hit it forwarded")
	}
	w.cli.mu.Lock()
	w.cli.leaving = false
	w.cli.mu.Unlock()
	submit()
	if body, _, ok := w.cli.store.Get(key, bench.SimVersion); !ok || string(body) != "held by n2\n" {
		t.Fatalf("replica = (%q, %v), want n2's bytes", body, ok)
	}
}

// admitLocal is a Local that records what its node admits.
type admitLocal struct {
	nopLocal
	admitted []sched.SubmitRequest
}

func (l *admitLocal) Admit(_ string, req sched.SubmitRequest) (sched.JobStatus, bool, error) {
	l.admitted = append(l.admitted, req)
	return sched.JobStatus{ID: "n1-j000001", Node: "n1"}, false, nil
}

// TestSubmitUnreachableOwnerFallsBack submits a job whose owner nothing
// listens for: Submit admits it locally and counts one fallback.
func TestSubmitUnreachableOwnerFallsBack(t *testing.T) {
	metrics := telemetry.NewRegistry()
	local := &admitLocal{}
	c, err := New(Config{
		Self: "n1",
		// n2's address points at a port nothing listens on.
		Nodes:   []Node{{ID: "n1", Addr: "http://127.0.0.1:1"}, {ID: "n2", Addr: "http://127.0.0.2:9"}},
		Local:   local,
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

	req := routedTo(t, c, "n2")
	st, _, err := c.Submit("t", req)
	if err != nil || st.Node != "n1" {
		t.Fatalf("Submit with an unreachable owner = (%+v, %v), want a local admission", st, err)
	}
	if len(local.admitted) != 1 || !reflect.DeepEqual(local.admitted[0], req) {
		t.Fatalf("local admissions = %+v, want exactly %+v", local.admitted, req)
	}
	if got := metrics.Counter("cluster.forward_fallback").Value(); got != 1 {
		t.Fatalf("cluster.forward_fallback = %d, want 1", got)
	}
}
