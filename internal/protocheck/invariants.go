package protocheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/store"
)

// nosyncHooks is the checker's own hook: no yields, no fsync. Used when
// the oracle replays a journal itself — the checks are instrumentation,
// not part of the modeled execution, so they take no crash decisions.
type nosyncHooks struct{}

func (nosyncHooks) Yield(site, detail string) {}
func (nosyncHooks) NoSync() bool              { return true }

// observation is what the oracle last saw of one job after a completed
// step. Only completed steps observe: a crashed step's transitions are
// indeterminate (the client never heard back), so both the pre- and
// post-transition worlds are legal after its recovery.
type observation struct {
	state serve.JobState
	key   string
}

// oracle asserts the sgxd durability invariants across one execution. The
// first failure wins; everything after it is untrusted.
type oracle struct {
	program      string
	acked        map[string]string // job ID -> store key, for completed submit steps
	observed     map[string]observation
	requeued     map[string]string // observed successful releases: old ID -> new ID
	requeuedByUs map[string]bool
	// mustSurvive is the restart contract read off the journal image at
	// the instant of death (or graceful close): job ID -> whether replay
	// must restore it. Consumed by afterRestart.
	mustSurvive map[string]bool
	violation   *Violation
}

func newOracle(program string) *oracle {
	return &oracle{
		program:      program,
		acked:        map[string]string{},
		observed:     map[string]observation{},
		requeued:     map[string]string{},
		requeuedByUs: map[string]bool{},
	}
}

func (o *oracle) fail(invariant, detail string) {
	if o.violation == nil {
		o.violation = &Violation{Program: o.program, Invariant: invariant, Detail: detail}
	}
}

// ack records a submit (or requeue) step that completed: the client holds
// a job ID the service acknowledged, durably.
func (o *oracle) ack(id, key string) { o.acked[id] = key }

// noteRequeue records an observed successful quarantine release.
func (o *oracle) noteRequeue(oldID, newID string) {
	if prev, ok := o.requeued[oldID]; ok {
		o.fail("requeue-exactly-once",
			fmt.Sprintf("job %s released twice: as %s and again as %s", oldID, prev, newID))
		return
	}
	o.requeued[oldID] = newID
	o.requeuedByUs[oldID] = true
}

// observe polls every job after a completed step and checks the
// monotonicity invariants: a key never changes, an observed terminal state
// never flips, a done job's result is byte-identical to the canonical
// output for its spec, and a released quarantine never becomes releasable
// again.
func (o *oracle) observe(w *world) {
	if o.violation != nil {
		return
	}
	for _, st := range w.srv.List() {
		if want := st.Job.Digest(); st.Key != want {
			o.fail("key-consistent", fmt.Sprintf("job %s key %s, spec digests to %s", st.ID, st.Key, want))
			return
		}
		if prev, ok := o.observed[st.ID]; ok {
			if prev.key != st.Key {
				o.fail("key-consistent", fmt.Sprintf("job %s key flipped %s -> %s", st.ID, prev.key, st.Key))
				return
			}
			if prev.state.Terminal() && st.State != prev.state {
				o.fail("terminal-stable", fmt.Sprintf("job %s flipped %s -> %s", st.ID, prev.state, st.State))
				return
			}
		}
		o.observed[st.ID] = observation{state: st.State, key: st.Key}
		if st.State == serve.StateDone {
			bundle, ok := w.srv.Result(st.ID)
			if !ok {
				o.fail("result-complete", fmt.Sprintf("job %s done with no result bundle", st.ID))
				return
			}
			if want := canonicalOutput(st.Job); bundle.Output != want {
				o.fail("result-identical",
					fmt.Sprintf("job %s output %q, want %q", st.ID, bundle.Output, want))
				return
			}
		}
		if st.State == serve.StateQuarantined && st.RequeuedAs == "" {
			if newID, ok := o.requeued[st.ID]; ok {
				o.fail("requeue-exactly-once",
					fmt.Sprintf("job %s releasable again after observed release as %s", st.ID, newID))
				return
			}
		}
	}
}

// noteJournalImage reads the journal as it stands — the crash image, or
// the file a graceful restart will replay — and derives the restart
// contract: a submitted job with no settling record (a finished state
// other than quarantined, or a requeue release) must be restored; a
// settled job must not be resurrected. This must run before anything
// compacts the file (the oracle's own idempotence check included), because
// compaction legitimately forgets settled jobs.
//
// The parse mirrors the journal grammar deliberately at arm's length: the
// on-disk format is part of the protocol under test, so protocheck reads
// it with its own eyes rather than through the code being checked.
func (o *oracle) noteJournalImage(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		o.fail("never-lost", fmt.Sprintf("journal image unreadable: %v", err))
		return
	}
	must := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			T     string          `json:"t"`
			ID    string          `json:"id"`
			State string          `json:"state"`
			Req   json.RawMessage `json:"req"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			break // torn tail: nothing after it is trusted, same as replay
		}
		switch rec.T {
		case "submitted":
			if rec.Req != nil {
				must[rec.ID] = true
			}
		case "finished":
			if _, ok := must[rec.ID]; ok {
				// A quarantine verdict parks the job: it must still be
				// restored. Any other terminal state settles it.
				must[rec.ID] = rec.State == string(serve.StateQuarantined)
			}
		case "requeued":
			if _, ok := must[rec.ID]; ok {
				must[rec.ID] = false
			}
		}
	}
	o.mustSurvive = must
}

// afterRestart checks the restart contract captured by noteJournalImage:
// replay restores exactly the journal's unsettled jobs — an acked job the
// journal still owes is never lost, and a settled job is never resurrected
// to run twice.
func (o *oracle) afterRestart(w *world) {
	if o.violation != nil {
		return
	}
	live := map[string]bool{}
	for _, st := range w.srv.List() {
		live[st.ID] = true
	}
	for id, must := range o.mustSurvive {
		switch {
		case must && !live[id]:
			o.fail("never-lost", fmt.Sprintf("journal owed job %s, gone after restart", id))
			return
		case !must && live[id]:
			o.fail("settled-once", fmt.Sprintf("settled job %s resurrected by restart", id))
			return
		}
	}
	o.mustSurvive = nil
	o.observe(w)
}

// allTerminal checks the drain guarantee: once the worker reports an empty
// backlog, no job is stranded in a non-terminal state.
func (o *oracle) allTerminal(w *world) {
	if o.violation != nil {
		return
	}
	for _, st := range w.srv.List() {
		if !st.State.Terminal() {
			o.fail("drain-settles", fmt.Sprintf("job %s still %s after drain", st.ID, st.State))
			return
		}
	}
}

// checkStoreIntegrity scans the store directory raw: every committed meta
// record must have a body whose size and SHA-256 match it — the commit
// protocol's whole promise. Orphan bodies and stranded temp files are the
// allowed crash debris (GC's job); meta without a matching body is a torn
// commit.
func (o *oracle) checkStoreIntegrity(root string) {
	if o.violation != nil {
		return
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".tmp-") {
			return nil
		}
		key := strings.TrimSuffix(name, ".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			o.fail("store-integrity", fmt.Sprintf("meta %s unreadable: %v", key, err))
			return filepath.SkipAll
		}
		var meta store.Meta
		if err := json.Unmarshal(raw, &meta); err != nil {
			o.fail("store-integrity", fmt.Sprintf("meta %s unparsable: %v", key, err))
			return filepath.SkipAll
		}
		if meta.Key != key {
			o.fail("store-integrity", fmt.Sprintf("meta %s misfiled (records key %s)", key, meta.Key))
			return filepath.SkipAll
		}
		body, err := os.ReadFile(filepath.Join(filepath.Dir(path), key+".body"))
		if err != nil {
			o.fail("store-integrity", fmt.Sprintf("meta %s committed with no readable body: %v", key, err))
			return filepath.SkipAll
		}
		if int64(len(body)) != meta.Size {
			o.fail("store-integrity", fmt.Sprintf("meta %s records %d body bytes, body has %d", key, meta.Size, len(body)))
			return filepath.SkipAll
		}
		sum := sha256.Sum256(body)
		if hex.EncodeToString(sum[:]) != meta.BodySHA256 {
			o.fail("store-integrity", fmt.Sprintf("meta %s body checksum mismatch", key))
			return filepath.SkipAll
		}
		return nil
	})
	if err != nil && o.violation == nil {
		o.fail("store-integrity", fmt.Sprintf("scan: %v", err))
	}
}

// checkReplayIdempotence replays the journal twice through the real code
// path and requires a fixpoint: the first open compacts, the second open
// must reconstruct the same jobs (and the same sequence watermark) from
// the compacted file, and compact it to identical bytes. The journal must
// be closed (the world aborted or between incarnations) when this runs.
//
// One deliberate normalization: compaction keeps *that* a pending job was
// interrupted but not how many attempts it had burned (a cosmetic field on
// non-quarantined jobs), so Attempts is zeroed on both sides for pending
// jobs before comparison.
func (o *oracle) checkReplayIdempotence(path string) {
	if o.violation != nil {
		return
	}
	jn1, r1, err := serve.OpenJournalHooked(path, nosyncHooks{})
	if err != nil {
		o.fail("replay-idempotent", fmt.Sprintf("first replay: %v", err))
		return
	}
	jn1.Close()
	b1, _ := os.ReadFile(path)
	jn2, r2, err := serve.OpenJournalHooked(path, nosyncHooks{})
	if err != nil {
		o.fail("replay-idempotent", fmt.Sprintf("second replay: %v", err))
		return
	}
	jn2.Close()
	b2, _ := os.ReadFile(path)

	if r1.MaxSeq != r2.MaxSeq {
		o.fail("replay-idempotent",
			fmt.Sprintf("sequence watermark regressed across compaction: %d -> %d", r1.MaxSeq, r2.MaxSeq))
		return
	}
	j1, j2 := normalizeReplay(r1.Jobs), normalizeReplay(r2.Jobs)
	if !reflect.DeepEqual(j1, j2) {
		o.fail("replay-idempotent", fmt.Sprintf("jobs diverge across compaction:\n  first:  %+v\n  second: %+v", j1, j2))
		return
	}
	if !bytes.Equal(b1, b2) {
		o.fail("replay-idempotent", "compaction is not a byte fixpoint")
	}
}

func normalizeReplay(jobs []serve.ReplayJob) []serve.ReplayJob {
	out := make([]serve.ReplayJob, len(jobs))
	for i, j := range jobs {
		if !j.Quarantined {
			j.Attempts = 0
		}
		out[i] = j
	}
	return out
}
