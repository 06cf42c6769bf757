// Package store is sgxd's persistent result cache: a content-addressed,
// crash-safe store of finished experiment results on the local filesystem.
//
// Entries are keyed by the caller's digest (in sgxd: SHA-256 over the
// canonical job spec plus the simulator version stamp) and hold an opaque
// body plus a small JSON metadata record. The layout under the root is
//
//	<root>/<key[:2]>/<key>.body   — the result bytes, verbatim
//	<root>/<key[:2]>/<key>.json   — Meta (version, body checksum, job echo)
//
// Writes are atomic: body and meta are staged as temp files in the entry's
// directory and renamed into place, body first — the meta rename is the
// commit point, so a crash mid-Put leaves at worst an orphaned body that a
// later Put overwrites or GC removes. Reads verify the body's SHA-256
// against the meta record and the stored simulator version against the
// caller's; a corrupt, truncated, or version-stale entry reports a plain
// miss (and is deleted) so the caller recomputes instead of serving bad
// bytes.
//
// Every mutation and every verified read holds the entry's per-key stripe
// lock, so a concurrent GC (or Delete, or racing Put) can never remove a
// body between a reader's meta check and its body open: a reader observes
// each entry either wholly before or wholly after any other operation on
// the same key.
//
// A store can carry a faultline injector (SetFaults) that perturbs its I/O
// at the named sites "store.read.meta", "store.read.body",
// "store.write.meta", "store.write.body" (error / bitflip / short-write
// rules) and at the crash point "store.between-writes" — the instant after
// the body rename and before the meta commit, the torn-write window.
// Injected read errors report a plain miss without deleting the entry
// (they model transient I/O, not corruption).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sgxbounds/internal/faultline"
	"sgxbounds/internal/protohook"
)

// Meta is the metadata record stored alongside each body.
type Meta struct {
	// Version stamps the generation of the producer (sgxd stores
	// bench.SimVersion). Get treats any mismatch as a miss: results from
	// an older simulator are never served.
	Version string `json:"version"`
	// Key echoes the entry key, guarding against misfiled entries.
	Key string `json:"key"`
	// BodySHA256 is the hex SHA-256 of the body file.
	BodySHA256 string `json:"body_sha256"`
	// Size is the body length in bytes.
	Size int64 `json:"size"`
	// CreatedUnix is the wall-clock write time (seconds).
	CreatedUnix int64 `json:"created_unix"`
	// ElapsedMS records how long the result took to compute, so a warm
	// hit can report the time it saved.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Job is the producer's own description of the work (sgxd stores the
	// canonical job spec), kept verbatim for listings and debugging.
	Job json.RawMessage `json:"job,omitempty"`
}

// stripeCount sizes the per-key lock table. Keys hash onto stripes by
// their leading hex byte, so two operations contend only when their keys
// share a stripe — GC against warm reads proceeds in parallel across the
// rest of the space.
const stripeCount = 64

// Store is a content-addressed result cache rooted at a directory. Methods
// are safe for concurrent use within one process; cross-process writers are
// safe against each other through the atomic rename protocol.
type Store struct {
	root   string
	faults *faultline.Injector
	hooks  protohook.Hooks
	locks  [stripeCount]sync.Mutex // per-key stripes; see package comment

	// metaFirst reverses Put's body-then-meta commit protocol. It exists
	// only to seed a known protocol regression for protocheck's
	// counterexample tests (see BreakCommitOrderForTest); it must never be
	// set outside a test.
	metaFirst bool
}

// SetFaults arms a fault injector on the store's I/O paths (nil disarms).
// Call before the store is shared across goroutines.
func (s *Store) SetFaults(inj *faultline.Injector) { s.faults = inj }

// SetHooks arms protocheck yield points on the store's commit protocol
// (nil disarms — the production state, one branch per site). Call before
// the store is shared across goroutines.
func (s *Store) SetHooks(h protohook.Hooks) { s.hooks = h }

// BreakCommitOrderForTest makes Put commit the meta record before the
// body — the classic torn-write bug the body-first protocol exists to
// prevent. It deliberately seeds that regression so protocheck can prove
// its explorer catches it (a crash in the staged window then leaves a
// committed meta with no body). Never call outside a test.
func (s *Store) BreakCommitOrderForTest(on bool) { s.metaFirst = on }

// lock returns the stripe lock owning key (caller has validated the key).
func (s *Store) lock(key string) *sync.Mutex {
	return &s.locks[(hexVal(key[0])<<4|hexVal(key[1]))%stripeCount]
}

func hexVal(c byte) int {
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Writable probes that the store can still take writes (disk present,
// permissions intact, not out of space) by creating and removing a temp
// file under the root. Backs the daemon's readiness check.
func (s *Store) Writable() error {
	f, err := os.CreateTemp(s.root, ".tmp-probe-*")
	if err != nil {
		return fmt.Errorf("store: not writable: %w", err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// ValidKey reports whether key can name an entry: at least four lower-case
// hex characters. Every method checks it before touching the filesystem.
func ValidKey(key string) error {
	if len(key) < 4 {
		return fmt.Errorf("store: key %q too short", key)
	}
	for _, r := range key {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return fmt.Errorf("store: key %q is not lower-case hex", key)
		}
	}
	return nil
}

func (s *Store) dir(key string) string  { return filepath.Join(s.root, key[:2]) }
func (s *Store) body(key string) string { return filepath.Join(s.dir(key), key+".body") }
func (s *Store) meta(key string) string { return filepath.Join(s.dir(key), key+".json") }

// Put writes body under key with the given metadata. meta.Key, BodySHA256
// and Size are filled in by the store; the caller provides Version,
// CreatedUnix, ElapsedMS and Job.
func (s *Store) Put(key string, body []byte, meta Meta) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	if meta.Version == "" {
		return errors.New("store: Put requires a version stamp")
	}
	meta.Key = key
	sum := sha256.Sum256(body)
	meta.BodySHA256 = hex.EncodeToString(sum[:])
	meta.Size = int64(len(body))
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	mj = append(mj, '\n')

	mu := s.lock(key)
	mu.Lock()
	defer mu.Unlock()
	dir := s.dir(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Body first, then meta: the meta rename is the commit point. A
	// reader that races a Put either misses (no meta yet) or sees the
	// complete new pair. (metaFirst reverses this to seed a protocheck
	// regression; see BreakCommitOrderForTest.)
	writeBody := func() error {
		if err := s.faults.Fire("store.write.body", key); err != nil {
			return fmt.Errorf("store: write %s: %w", s.body(key), err)
		}
		return s.writeAtomic(dir, s.body(key), s.faults.Mutate("store.write.body", key, body))
	}
	writeMeta := func() error {
		if err := s.faults.Fire("store.write.meta", key); err != nil {
			return fmt.Errorf("store: write %s: %w", s.meta(key), err)
		}
		return s.writeAtomic(dir, s.meta(key), s.faults.Mutate("store.write.meta", key, mj))
	}
	first, second := writeBody, writeMeta
	if s.metaFirst {
		first, second = writeMeta, writeBody
	}
	protohook.Yield(s.hooks, "store.put.begin", key)
	if err := first(); err != nil {
		return err
	}
	// The torn-write window: one half of the entry is on disk, the commit
	// rename has not happened. Crashing here must leave at worst an
	// orphaned body.
	s.faults.Crash("store.between-writes")
	protohook.Yield(s.hooks, "store.put.staged", key)
	if err := second(); err != nil {
		return err
	}
	protohook.Yield(s.hooks, "store.put.done", key)
	return nil
}

func (s *Store) writeAtomic(dir, dst string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	var serr error
	if !protohook.NoSync(s.hooks) {
		serr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = serr
	}
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(name, dst)
	}
	if werr != nil {
		os.Remove(name)
		return fmt.Errorf("store: write %s: %w", dst, werr)
	}
	return nil
}

// Get returns the body and metadata stored under key, or ok=false on a
// miss. A miss includes any entry that fails verification — meta unreadable,
// key or version mismatch, body checksum or size wrong — and such entries
// are deleted so they cannot shadow a recompute. The whole check-then-read
// sequence runs under the key's stripe lock, so a concurrent GC or Delete
// cannot yank the body out from under a reader that already verified the
// meta record.
func (s *Store) Get(key, version string) (body []byte, meta Meta, ok bool) {
	if ValidKey(key) != nil {
		return nil, Meta{}, false
	}
	mu := s.lock(key)
	mu.Lock()
	defer mu.Unlock()
	protohook.Yield(s.hooks, "store.get", key)
	if err := s.faults.Fire("store.read.meta", key); err != nil {
		return nil, Meta{}, false // transient read fault: miss, keep the entry
	}
	mj, err := os.ReadFile(s.meta(key))
	if err != nil {
		return nil, Meta{}, false
	}
	mj = s.faults.Mutate("store.read.meta", key, mj)
	if err := json.Unmarshal(mj, &meta); err != nil {
		s.deleteLocked(key)
		return nil, Meta{}, false
	}
	if meta.Key != key || meta.Version != version {
		// Stale generation (or misfiled entry): recompute. Deleting keeps
		// the store from accumulating dead entries across sim bumps.
		s.deleteLocked(key)
		return nil, Meta{}, false
	}
	if err := s.faults.Fire("store.read.body", key); err != nil {
		return nil, Meta{}, false
	}
	body, err = os.ReadFile(s.body(key))
	if err != nil {
		s.deleteLocked(key)
		return nil, Meta{}, false
	}
	body = s.faults.Mutate("store.read.body", key, body)
	if int64(len(body)) != meta.Size {
		s.deleteLocked(key)
		return nil, Meta{}, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != meta.BodySHA256 {
		s.deleteLocked(key)
		return nil, Meta{}, false
	}
	return body, meta, true
}

// Stat returns the metadata for key without reading or verifying the body.
func (s *Store) Stat(key string) (Meta, bool) {
	if ValidKey(key) != nil {
		return Meta{}, false
	}
	mj, err := os.ReadFile(s.meta(key))
	if err != nil {
		return Meta{}, false
	}
	var meta Meta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return Meta{}, false
	}
	return meta, true
}

// Delete removes the entry under key (missing entries are not an error).
func (s *Store) Delete(key string) error {
	if err := ValidKey(key); err != nil {
		return err
	}
	mu := s.lock(key)
	mu.Lock()
	defer mu.Unlock()
	protohook.Yield(s.hooks, "store.delete", key)
	return s.deleteLocked(key)
}

// deleteLocked removes both files of an entry; the caller holds the key's
// stripe lock.
func (s *Store) deleteLocked(key string) error {
	err1 := os.Remove(s.meta(key))
	err2 := os.Remove(s.body(key))
	if err1 != nil && !errors.Is(err1, fs.ErrNotExist) {
		return err1
	}
	if err2 != nil && !errors.Is(err2, fs.ErrNotExist) {
		return err2
	}
	return nil
}

// Keys lists every committed entry key, sorted.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".tmp-") {
			keys = append(keys, strings.TrimSuffix(name, ".json"))
		}
		return nil
	})
	sort.Strings(keys)
	return keys, err
}

// Stats summarises the store's contents.
type Stats struct {
	Entries   int   `json:"entries"`
	BodyBytes int64 `json:"body_bytes"`
}

// Stats walks the store and reports entry count and total body size.
func (s *Store) Stats() (Stats, error) {
	keys, err := s.Keys()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Entries: len(keys)}
	for _, k := range keys {
		if m, ok := s.Stat(k); ok {
			st.BodyBytes += m.Size
		}
	}
	return st, nil
}

// GC removes entries whose version differs from keep, plus any stranded
// temp or orphaned body files, and returns the number of entries removed.
// Each entry is examined and reaped under its stripe lock, so GC can never
// delete a body between a concurrent reader's meta check and body open —
// and the sweep proceeds key by key, never blocking the whole store.
func (s *Store) GC(keep string) (removed int, err error) {
	var firstErr error
	werr := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			os.Remove(path)
		case strings.HasSuffix(name, ".json"):
			key := strings.TrimSuffix(name, ".json")
			if ValidKey(key) != nil {
				return nil
			}
			mu := s.lock(key)
			mu.Lock()
			protohook.Yield(s.hooks, "store.gc", key)
			m, ok := s.Stat(key)
			if !ok || m.Version != keep || m.Key != key {
				if derr := s.deleteLocked(key); derr != nil && firstErr == nil {
					firstErr = derr
				}
				removed++
			}
			mu.Unlock()
		case strings.HasSuffix(name, ".body"):
			key := strings.TrimSuffix(name, ".body")
			if ValidKey(key) != nil {
				return nil
			}
			mu := s.lock(key)
			mu.Lock()
			// Re-check under the lock: a Put may have committed the meta
			// record since the walk saw the bare body.
			if _, err := os.Stat(s.meta(key)); errors.Is(err, fs.ErrNotExist) {
				os.Remove(path) // orphan from an interrupted Put
			}
			mu.Unlock()
		}
		return nil
	})
	if firstErr == nil {
		firstErr = werr
	}
	return removed, firstErr
}
