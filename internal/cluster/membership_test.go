package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
)

// nopLocal satisfies Local for tests that never exercise the local node.
type nopLocal struct{}

func (nopLocal) Admit(string, sched.SubmitRequest, string) (sched.JobStatus, error) {
	return sched.JobStatus{}, nil
}
func (nopLocal) Depth() (int, int)                 { return 0, 64 }
func (nopLocal) Unsettled(int) []sched.PendingJob  { return nil }
func (nopLocal) Queued(int) []sched.PendingJob     { return nil }
func (nopLocal) HasLocal(string) bool              { return false }
func (nopLocal) Cancel(string) bool                { return false }
func (nopLocal) BeginDrain()                       {}
func (nopLocal) Quarantined(int) []sched.JobStatus { return nil }

// tempStore opens an empty store under the test's temp dir.
func tempStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestParsePeersInline(t *testing.T) {
	nodes, err := ParsePeers(" n2=http://b:7483, n1=https://a:7483 ,n3=c:7483 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{ID: "n1", Addr: "https://a:7483"},
		{ID: "n2", Addr: "http://b:7483"},
		{ID: "n3", Addr: "http://c:7483"}, // bare host:port gets http://
	}
	if len(nodes) != len(want) {
		t.Fatalf("got %d nodes, want %d: %v", len(nodes), len(want), nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v (sorted by ID)", i, nodes[i], want[i])
		}
	}
}

func TestParsePeersFile(t *testing.T) {
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "peers.json")
	os.WriteFile(jsonPath, []byte(`[{"id":"b","addr":"http://b:1"},{"id":"a","addr":"http://a:1"}]`), 0o644)
	nodes, err := ParsePeers("@" + jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != "a" || nodes[1].ID != "b" {
		t.Fatalf("json file: %v", nodes)
	}

	textPath := filepath.Join(dir, "peers.txt")
	os.WriteFile(textPath, []byte("a=http://a:1\nb=http://b:1\n"), 0o644)
	nodes, err = ParsePeers("@" + textPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != "a" || nodes[1].ID != "b" {
		t.Fatalf("text file: %v", nodes)
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, spec := range []string{
		"",                            // empty
		"n1=http://a:1,n1=http://b:1", // duplicate ID
		"n1=ftp://a:1",                // bad scheme
		"justanid",                    // no address
		"@/does/not/exist.json",       // missing file
	} {
		if _, err := ParsePeers(spec); err == nil {
			t.Errorf("ParsePeers(%q): no error", spec)
		}
	}
}

func TestNewRejectsUnknownSelf(t *testing.T) {
	_, err := New(Config{Self: "ghost", Nodes: []Node{{ID: "n1", Addr: "http://a:1"}}, Local: nopLocal{}, Store: tempStore(t)})
	if err == nil {
		t.Fatal("New accepted a Self absent from Nodes")
	}
}
