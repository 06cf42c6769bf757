package sched

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the journal reader — torn
// tails, interleaved garbage, duplicate and contradictory records — and
// holds it to two promises: replay never panics, and it never invents a
// job (every replayed ID traces back to a parsable submitted line in the
// input). On top of that, one reopen later the compacted file must replay
// to the same jobs with the same start counts: recovery from a corrupt
// journal must be stable, not merely survivable, and a compaction that
// lost starts would let a job that kills its process restart forever.
func FuzzJournalReplay(f *testing.F) {
	sub := func(id, exp string) string {
		raw, _ := json.Marshal(journalRecord{T: "submitted", ID: id, Req: &SubmitRequest{Experiment: exp}, Unix: 9})
		return string(raw)
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(sub("j000001", "fig2") + "\n"))
	f.Add([]byte(sub("j000001", "fig2") + "\n" + `{"t":"started","id":"j000001"}` + "\n" + `{"t":"finis`))
	f.Add([]byte(sub("j000001", "fig2") + "\n" + `{"t":"finished","id":"j000001","state":"failed","error":"x"}` + "\n"))
	f.Add([]byte(`{"t":"submitted","id":"j000002","req":{"experiment":"fig7"},"attempts":2}` + "\n" + `{"t":"started","id":"j000002","attempts":-7}` + "\n"))
	f.Add([]byte(`{"t":"submitted","id":"j000003"}` + "\n")) // submitted with no req
	f.Add([]byte(`{"t":"seq","id":"j000040"}` + "\n" + sub("j000041", "fig2") + "\n"))
	f.Add([]byte("{\"t\":\"submitted\",\"id\":\"j000001\"" + "\x00\xff garbage"))
	f.Add(append([]byte(sub("j000001", "fig2")+"\n"), bytes.Repeat([]byte(`{"t":"started","id":"j000001"}`+"\n"), 64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jn, replay, err := OpenJournal(path)
		if err != nil {
			// An I/O-level refusal (e.g. a line beyond the scanner cap) is
			// a legitimate error, not a crash; nothing further to hold it to.
			return
		}
		jn.Close()

		// Never invent: collect the IDs the input could legitimately have
		// introduced. This is a superset of what replay may use (replay
		// additionally stops at the first unparsable line).
		introduced := map[string]bool{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec journalRecord
			if json.Unmarshal(line, &rec) == nil && rec.T == "submitted" && rec.Req != nil {
				introduced[rec.ID] = true
			}
		}
		seen := map[string]bool{}
		for _, j := range replay.Jobs {
			if !introduced[j.ID] {
				t.Errorf("replay invented job %q from input %q", j.ID, data)
			}
			if seen[j.ID] {
				t.Errorf("replay duplicated job %q", j.ID)
			}
			seen[j.ID] = true
		}

		// Stability: the file was compacted by the open above; replaying
		// the compacted form must reconstruct the same jobs.
		jn2, replay2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen of compacted journal failed: %v", err)
		}
		jn2.Close()
		if len(replay2.Jobs) != len(replay.Jobs) {
			t.Fatalf("compaction changed the job set: %d -> %d jobs", len(replay.Jobs), len(replay2.Jobs))
		}
		for i, j := range replay.Jobs {
			k := replay2.Jobs[i]
			if j.ID != k.ID || j.Attempts != k.Attempts || j.CreatedUnix != k.CreatedUnix {
				t.Errorf("job %d diverged across compaction: %+v vs %+v", i, j, k)
			}
		}
		if replay2.MaxSeq != replay.MaxSeq {
			t.Errorf("sequence watermark changed across compaction: %d -> %d", replay.MaxSeq, replay2.MaxSeq)
		}
	})
}
