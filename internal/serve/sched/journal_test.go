package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openJournalT(t *testing.T, path string) (*Journal, Replay) {
	t.Helper()
	jn, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	return jn, replay
}

// TestJournalReplaySemantics: each record combination reconstructs the
// right job state — pending, interrupted with its start count, adopted with
// the count it arrived with, or settled.
func TestJournalReplaySemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, replay := openJournalT(t, path)
	if len(replay.Jobs) != 0 || replay.MaxSeq != 0 {
		t.Fatalf("fresh journal replay = %+v", replay)
	}

	req := func(exp string) *SubmitRequest { return &SubmitRequest{Experiment: exp} }
	records := []journalRecord{
		// j1: pending (accepted, never started).
		{T: "submitted", ID: "j000001", Req: req("fig2"), Unix: 100},
		// j2: interrupted mid-run, twice.
		{T: "submitted", ID: "j000002", Req: req("table4"), Unix: 101},
		{T: "started", ID: "j000002"},
		{T: "started", ID: "j000002"},
		// j3: finished cleanly — settled.
		{T: "submitted", ID: "j000003", Req: req("fig2"), Unix: 102},
		{T: "started", ID: "j000003"},
		{T: "finished", ID: "j000003", State: StateDone},
		// j4: failed — settled like any other verdict.
		{T: "submitted", ID: "j000004", Req: req("table4"), Unix: 103},
		{T: "started", ID: "j000004"},
		{T: "finished", ID: "j000004", State: StateFailed, Error: "poison cell"},
		// j5: adopted after two starts on another node, started once here.
		{T: "submitted", ID: "j000005", Req: req("fig2"), Unix: 104, Attempts: 2},
		{T: "started", ID: "j000005"},
	}
	for _, rec := range records {
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.Close()

	_, replay = openJournalT(t, path)
	if replay.MaxSeq != 5 {
		t.Errorf("MaxSeq = %d, want 5", replay.MaxSeq)
	}
	byID := make(map[string]ReplayJob)
	for _, j := range replay.Jobs {
		byID[j.ID] = j
	}
	if len(byID) != 3 {
		t.Fatalf("replayed %d jobs (%v), want j1, j2, j5", len(byID), replay.Jobs)
	}
	if j := byID["j000001"]; j.Attempts != 0 || j.Req.Experiment != "fig2" || j.CreatedUnix != 100 {
		t.Errorf("j1 = %+v, want pending fig2", j)
	}
	if j := byID["j000002"]; j.Attempts != 2 {
		t.Errorf("j2 = %+v, want interrupted after 2 starts", j)
	}
	if j := byID["j000005"]; j.Attempts != 3 {
		t.Errorf("j5 = %+v, want 3 starts (2 adopted + 1 here)", j)
	}
	for _, id := range []string{"j000003", "j000004"} {
		if _, ok := byID[id]; ok {
			t.Errorf("settled job %s resurrected", id)
		}
	}
}

// TestJournalToleratesTornTail: a crash mid-append leaves a partial final
// line; replay keeps everything before it and drops the tear.
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, _ := openJournalT(t, path)
	jn.Append(journalRecord{T: "submitted", ID: "j000001", Req: &SubmitRequest{Experiment: "fig2"}, Unix: 1})
	jn.Append(journalRecord{T: "submitted", ID: "j000002", Req: &SubmitRequest{Experiment: "table4"}, Unix: 2})
	jn.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"finished","id":"j0000`) // torn mid-record
	f.Close()

	_, replay := openJournalT(t, path)
	if len(replay.Jobs) != 2 {
		t.Fatalf("replay after torn tail = %+v, want both jobs", replay.Jobs)
	}
	// The reopened journal was compacted: the torn line is gone for good.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("compacted journal still has an unparsable line: %q", line)
		}
	}
}

// TestJournalCompaction: settled jobs' records do not accumulate — reopen
// rewrites the file to just the live state.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, _ := openJournalT(t, path)
	for i := 0; i < 50; i++ {
		id := "j000001"
		jn.Append(journalRecord{T: "submitted", ID: id, Req: &SubmitRequest{Experiment: "fig2"}})
		jn.Append(journalRecord{T: "started", ID: id})
		jn.Append(journalRecord{T: "finished", ID: id, State: StateDone})
	}
	jn.Append(journalRecord{T: "submitted", ID: "j000051", Req: &SubmitRequest{Experiment: "table4"}, Unix: 9})
	jn.Close()
	before, _ := os.Stat(path)

	_, replay := openJournalT(t, path)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	if len(replay.Jobs) != 1 || replay.Jobs[0].ID != "j000051" {
		t.Fatalf("replay = %+v, want only j000051", replay.Jobs)
	}
	// Keys are recomputed at compaction time from the request, pinning the
	// entry to the current simulator version.
	raw, _ := os.ReadFile(path)
	var submitted *journalRecord
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.T == "submitted" {
			submitted = &rec
			break
		}
	}
	if submitted == nil {
		t.Fatal("compacted journal has no submitted record")
	}
	if submitted.Key != (SubmitRequest{Experiment: "table4"}).Job().Digest() {
		t.Errorf("compacted key = %q, want current digest", submitted.Key)
	}
}

// TestJournalSeqWatermark: compaction drops settled jobs but must not let
// their sequence numbers be reissued — the "seq" record carries the
// watermark across any number of compactions.
func TestJournalSeqWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jn, _ := openJournalT(t, path)
	jn.Append(journalRecord{T: "submitted", ID: "j000007", Req: &SubmitRequest{Experiment: "fig2"}})
	jn.Append(journalRecord{T: "finished", ID: "j000007", State: StateDone})
	jn.Close()

	// First reopen: the settled job is compacted away, the watermark stays.
	jn2, replay := openJournalT(t, path)
	if replay.MaxSeq != 7 {
		t.Fatalf("MaxSeq after first compaction = %d, want 7", replay.MaxSeq)
	}
	jn2.Close()

	// Second reopen replays only the compacted file; without the seq record
	// the watermark would have regressed to 0 and j000001..j000007 could be
	// reissued to fresh submissions.
	_, replay = openJournalT(t, path)
	if replay.MaxSeq != 7 {
		t.Errorf("MaxSeq after second compaction = %d, want 7", replay.MaxSeq)
	}
}

// TestJournalNilSafe: a server without a journal path calls through a nil
// *Journal everywhere.
func TestJournalNilSafe(t *testing.T) {
	var jn *Journal
	if err := jn.Append(journalRecord{T: "submitted", ID: "j000001"}); err != nil {
		t.Errorf("nil Append = %v", err)
	}
	if err := jn.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if jn.Path() != "" {
		t.Errorf("nil Path = %q", jn.Path())
	}
}

// TestJobSeqPrefixed: cluster nodes mint node-prefixed IDs ("n2-j000017");
// the journal's sequence watermark must parse those the same as bare IDs so
// a replayed cluster node never reissues a consumed sequence number.
func TestJobSeqPrefixed(t *testing.T) {
	cases := []struct {
		id   string
		want int
	}{
		{"j000042", 42},
		{"n2-j000042", 42},
		{"node-j7-j000013", 13}, // only the last j-run counts
		{"", 0},
		{"n2-", 0},
		{"bogus", 0},
	}
	for _, c := range cases {
		if got := jobSeq(c.id); got != c.want {
			t.Errorf("jobSeq(%q) = %d, want %d", c.id, got, c.want)
		}
	}
}
