package sched

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sgxbounds/internal/protohook"
	"sgxbounds/internal/telemetry"
)

// The job journal is sgxd's crash-durability layer: an append-only JSONL
// file recording the lifecycle transitions of every job that queues,
// fsync'd per record. A store hit is not a job and writes nothing: its ID
// resolves through the store key (Scheduler.Get). On boot the journal is
// replayed — jobs that were queued or running when the process died are
// resubmitted, their IDs preserved — and then compacted, so the file holds
// only live state plus the records appended since boot.
//
// Record stream grammar (one JSON object per line):
//
//	{"t":"submitted","id":"j000001","key":"...","req":{...},"unix":...}
//	{"t":"started","id":"j000001","unix":...}          // one per start
//	{"t":"finished","id":"j000001","state":"done",...} // done|failed|canceled
//	{"t":"seq","id":"j000042"}                         // compaction watermark
//
// A job with a submitted record and no finished record is pending: it is
// re-enqueued on replay (a crash between "started" and "finished" re-runs
// the job — results are deterministic and cached, so convergence is
// byte-identical). Its start count is the sum over its started records,
// each counting one start unless it carries "attempts": compaction folds
// a job's starts into one record that does, and a job adopted from
// another cluster node has its submitted record carry the starts it made
// there. A torn final line (the crash landed mid-append) is tolerated and
// dropped; replay stops at the first unparsable line.
type journalRecord struct {
	T        string         `json:"t"`
	ID       string         `json:"id"`
	Unix     int64          `json:"unix,omitempty"`
	Key      string         `json:"key,omitempty"`
	Req      *SubmitRequest `json:"req,omitempty"`
	State    JobState       `json:"state,omitempty"`
	Error    string         `json:"error,omitempty"`
	Attempts int            `json:"attempts,omitempty"`
}

// ReplayJob is one job reconstructed from the journal at boot.
type ReplayJob struct {
	ID          string
	Req         SubmitRequest
	CreatedUnix int64
	Attempts    int // starts without settling; 0 = never started
}

// Replay is the reconstructed journal state.
type Replay struct {
	Jobs   []ReplayJob // journal order: pending first-submitted first
	MaxSeq int         // highest job sequence number ever issued
}

// Journal is the append side: one exclusive writer per daemon.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	hooks   protohook.Hooks
	appends *telemetry.Counter // records made durable (nil-safe)
}

// OpenJournal replays the journal at path (creating it if absent), compacts
// it to the surviving state, and returns the open journal plus the replay.
func OpenJournal(path string) (*Journal, Replay, error) {
	return OpenJournalHooked(path, nil)
}

// OpenJournalHooked is OpenJournal with protocheck yield points armed on
// the replay/compact/append protocol (nil hooks = OpenJournal). The hooks
// are live from the compaction rename onward, so crash-during-recovery
// interleavings are explorable too.
func OpenJournalHooked(path string, hooks protohook.Hooks) (*Journal, Replay, error) {
	replay, err := readJournal(path)
	if err != nil {
		return nil, Replay{}, err
	}
	if err := compactJournal(path, replay, hooks); err != nil {
		return nil, Replay{}, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Journal{path: path, f: f, hooks: hooks}, replay, nil
}

func readJournal(path string) (Replay, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Replay{}, nil
	}
	if err != nil {
		return Replay{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	type jobState struct {
		ReplayJob
		settled bool // has a finished record
	}
	jobs := make(map[string]*jobState)
	var order []string
	maxSeq := 0

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn append from the crash that brought us here; nothing
			// after it can be trusted.
			break
		}
		if seq := jobSeq(rec.ID); seq > maxSeq {
			maxSeq = seq
		}
		switch rec.T {
		case "submitted":
			if rec.Req == nil {
				continue
			}
			if _, ok := jobs[rec.ID]; !ok {
				jobs[rec.ID] = &jobState{ReplayJob: ReplayJob{
					ID: rec.ID, Req: *rec.Req, CreatedUnix: rec.Unix,
					Attempts: addStarts(0, rec.Attempts),
				}}
				order = append(order, rec.ID)
			}
		case "started":
			if j, ok := jobs[rec.ID]; ok {
				j.Attempts = addStarts(j.Attempts, max(rec.Attempts, 1))
			}
		case "finished":
			if j, ok := jobs[rec.ID]; ok {
				j.settled = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Replay{}, fmt.Errorf("journal: read %s: %w", path, err)
	}

	replay := Replay{MaxSeq: maxSeq}
	for _, id := range order {
		if j := jobs[id]; !j.settled {
			replay.Jobs = append(replay.Jobs, j.ReplayJob)
		}
	}
	return replay, nil
}

// addStarts adds n journaled starts to a count, saturating at MaxStarts:
// past the bound the job is settled, so a larger count means nothing, and
// a corrupt record cannot overflow it.
func addStarts(count, n int) int {
	return min(count+min(max(n, 0), MaxStarts), MaxStarts)
}

// compactJournal rewrites the journal to hold exactly the surviving state:
// a submitted record per live job, plus one started record carrying its
// start count. Staged next to the journal and renamed into place, so a
// crash mid-compaction leaves the previous journal intact.
func compactJournal(path string, replay Replay, hooks protohook.Hooks) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	name := tmp.Name()
	enc := json.NewEncoder(tmp)
	werr := func() error {
		// Persist the ID watermark: settled jobs drop out of the compacted
		// file, but the sequence they consumed must not be reissued — a
		// double restart would otherwise hand a settled job's ID to a fresh
		// submission (found by protocheck's never-lost oracle). A "seq"
		// record is ignored by replay except for its ID's sequence number.
		if replay.MaxSeq > 0 {
			rec := journalRecord{T: "seq", ID: fmt.Sprintf("j%06d", replay.MaxSeq)}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		for _, j := range replay.Jobs {
			req := j.Req
			rec := journalRecord{T: "submitted", ID: j.ID, Req: &req, Unix: j.CreatedUnix, Key: req.StoreKey()}
			if err := enc.Encode(rec); err != nil {
				return err
			}
			// One started record carries the start count across the
			// rewrite, so a job that keeps killing its process reaches
			// MaxStarts however often the journal is compacted, and a
			// replay of the compacted file reconstructs the same ReplayJob
			// (protocheck asserts this round-trip is a fixpoint).
			if j.Attempts > 0 {
				if err := enc.Encode(journalRecord{T: "started", ID: j.ID, Attempts: j.Attempts}); err != nil {
					return err
				}
			}
		}
		if protohook.NoSync(hooks) {
			return nil
		}
		return tmp.Sync()
	}()
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		protohook.Yield(hooks, "journal.compact", path)
		werr = os.Rename(name, path)
	}
	if werr != nil {
		os.Remove(name)
		return fmt.Errorf("journal: compact %s: %w", path, werr)
	}
	return nil
}

// Append writes one record and syncs it to disk before returning: a record
// the caller acted on (a 201 to a client, a worker starting) is durable.
func (jn *Journal) Append(rec journalRecord) error {
	if jn == nil {
		return nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	jn.mu.Lock()
	defer jn.mu.Unlock()
	// The window before the record is durable: a crash here loses the
	// transition, and replay must reconstruct a safe state without it.
	protohook.Yield(jn.hooks, "journal.append."+rec.T, rec.ID)
	if _, err := jn.f.Write(raw); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if !protohook.NoSync(jn.hooks) {
		if err := jn.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	jn.appends.Inc()
	protohook.Yield(jn.hooks, "journal.appended."+rec.T, rec.ID)
	return nil
}

// Close releases the journal file.
func (jn *Journal) Close() error {
	if jn == nil {
		return nil
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.f.Close()
}

// Path returns the journal's file path.
func (jn *Journal) Path() string {
	if jn == nil {
		return ""
	}
	return jn.path
}

// jobSeq parses the sequence number out of a "jNNNNNN" job ID, with or
// without a node prefix ("n2-jNNNNNN" — cluster nodes namespace their IDs,
// see sched.Config.IDPrefix). 0 if the ID is not in that form.
func jobSeq(id string) int {
	if i := strings.LastIndexByte(id, 'j'); i >= 0 {
		id = id[i:]
	}
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}
