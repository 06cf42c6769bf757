package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/cluster"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/store"
)

// newClusterPair stands up two real clustered daemons over pre-bound
// listeners, so `sgxctl cluster status` is rendered from a live
// membership, not canned JSON.
func newClusterPair(t *testing.T) (urls [2]string) {
	t.Helper()
	var listeners [2]net.Listener
	var members [2]cluster.Node
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	for i := range listeners {
		st, err := store.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{
			Store: st,
			Compute: func(ctx context.Context, spec bench.Job) (*serve.ResultBundle, error) {
				return &serve.ResultBundle{Output: "golden\n"}, nil
			},
			Cluster: &serve.ClusterConfig{
				Self:      members[i].ID,
				Nodes:     members[:],
				Heartbeat: 25 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(func() {
			srv.Abort()
			ts.Close()
		})
		urls[i] = "http://" + listeners[i].Addr().String()
	}
	return urls
}

var portRe = regexp.MustCompile(`127\.0\.0\.1:\d+`)

func TestClusterStatusGolden(t *testing.T) {
	urls := newClusterPair(t)
	got := runCommand(t, urls[0], func(c *client) error { return c.cluster([]string{"status"}) })
	checkGolden(t, "cluster-status.golden", portRe.ReplaceAllString(got, "127.0.0.1:PORT"))
}

func TestClusterStatusSingleNode(t *testing.T) {
	ts := newDaemon(t)
	var out bytes.Buffer
	c := &client{base: ts.URL, out: &out, errOut: &out}
	err := c.cluster([]string{"status"})
	if err == nil {
		t.Fatal("cluster status against a single-node daemon succeeded; want the 404 hint")
	}
	checkGolden(t, "cluster-status-disabled.golden", err.Error()+"\n")
}
