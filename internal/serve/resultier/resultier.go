// Package resultier is sgxd's result tier: a bounded in-memory LRU
// layered read-through/write-through over the content-addressed disk
// store (internal/serve/store). Warm hits never touch disk; misses fall
// through to the store and populate the cache on the way back; writes go
// to disk first (durability is the store's job) and only then into
// memory, so the cache never holds bytes the disk could lose.
//
// The tier implements the same Get/Put/Delete surface as the raw store
// (sched.ResultStore), so the scheduler cannot tell which one it is
// driving. Entries are keyed by content address and remember the
// simulator version they were stored under: a Get for a different
// version misses in memory and lets the store's own staleness rules
// decide, so a simulator upgrade can never serve stale tables out of
// RAM either.
package resultier

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/telemetry"
)

// PeerFetch is the cluster read-through hook, consulted on a disk miss
// before the scheduler falls back to computing: given a content address
// and simulator version, return verified result bytes from a peer node,
// or ok=false. The tier trusts the hook to have verified checksum and
// version already (internal/cluster does); bytes it returns are
// replicated to the local disk store and then admitted to memory, so the
// next hit is local.
type PeerFetch func(key, version string) ([]byte, store.Meta, bool)

// entry is one cached result: the stored body and metadata, plus the
// byte charge it holds against the tier's budget.
type entry struct {
	key  string
	body []byte
	meta store.Meta
	cost int64
}

// Tier is the LRU cache over a disk store. The zero value is not usable;
// build one with New.
type Tier struct {
	disk     *store.Store
	maxBytes int64

	mu    sync.Mutex
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> *entry element
	bytes int64

	hits, misses, evictions, inserts *telemetry.Counter

	// peers, when set, sits below the disk tier and above compute.
	peers atomic.Value // PeerFetch
}

// New builds a tier over disk, holding at most maxBytes of cached result
// bodies (metadata and bookkeeping are charged approximately, via body
// length). maxBytes <= 0 disables caching entirely: every call passes
// straight through to disk. Counters land in reg under "cache.*"
// ("cache.hits", "cache.misses", "cache.evictions", "cache.inserts"); a
// nil reg allocates a private registry.
func New(disk *store.Store, maxBytes int64, reg *telemetry.Registry) *Tier {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Tier{
		disk:      disk,
		maxBytes:  maxBytes,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		inserts:   reg.Counter("cache.inserts"),
	}
}

// SetPeerFetch installs the cluster read-through below the disk tier.
// Safe to call after the tier is in use; nil-safe before it is set.
func (t *Tier) SetPeerFetch(f PeerFetch) { t.peers.Store(f) }

// Contains reports whether key is resident in the memory tier under the
// given simulator version, without touching disk or promoting the entry —
// the cluster router's cheap "can I serve this locally" probe.
func (t *Tier) Contains(key, version string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[key]
	return ok && el.Value.(*entry).meta.Version == version
}

// Get serves key from memory when the cached entry matches version;
// otherwise it reads through to disk and, on success, caches the result,
// and on a disk miss it asks the peers (see SetPeerFetch). The returned
// body is shared with the cache: callers must not mutate it (the
// scheduler only decodes and streams it, which is why the tier can avoid
// a copy on the hot path).
func (t *Tier) Get(key, version string) ([]byte, store.Meta, bool) {
	body, meta, ok := t.GetLocal(key, version)
	if ok {
		return body, meta, true
	}
	// Disk miss: a peer may already hold this digest. The hook returns
	// only verified bytes; replicate to disk first (the durability rule —
	// memory never holds what the local disk could lose) and admit to the
	// LRU only once the disk copy landed. A failed local write still
	// serves the verified peer bytes: the authoritative copy lives on the
	// peer's disk.
	if f, _ := t.peers.Load().(PeerFetch); f != nil {
		if pbody, pmeta, pok := f(key, version); pok {
			if err := t.disk.Put(key, pbody, pmeta); err == nil {
				t.admit(key, pbody, pmeta)
			}
			return pbody, pmeta, true
		}
	}
	return nil, meta, false
}

// GetLocal is Get without the peer read-through: memory, then this
// node's disk. A caller that retries a read asks the peers once, not on
// every try.
func (t *Tier) GetLocal(key, version string) ([]byte, store.Meta, bool) {
	if t.maxBytes > 0 {
		t.mu.Lock()
		if el, ok := t.items[key]; ok {
			e := el.Value.(*entry)
			if e.meta.Version == version {
				t.ll.MoveToFront(el)
				t.mu.Unlock()
				t.hits.Inc()
				return e.body, e.meta, true
			}
			// Cached under a different simulator version: drop it now —
			// it can never hit again — and fall through to disk.
			t.removeLocked(el)
		}
		t.mu.Unlock()
	}
	t.misses.Inc()
	body, meta, ok := t.disk.Get(key, version)
	if ok {
		t.admit(key, body, meta)
	}
	return body, meta, ok
}

// Put writes through: disk first (the store's atomic commit protocol is
// the durability boundary), then memory. A failed disk write caches
// nothing — the tier never holds a result the disk does not.
func (t *Tier) Put(key string, body []byte, meta store.Meta) error {
	if err := t.disk.Put(key, body, meta); err != nil {
		return err
	}
	t.admit(key, body, meta)
	return nil
}

// Delete drops key from memory and disk. Memory goes first so a
// concurrent Get cannot re-serve an entry the disk is about to lose.
func (t *Tier) Delete(key string) error {
	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		t.removeLocked(el)
	}
	t.mu.Unlock()
	return t.disk.Delete(key)
}

// Flush empties the memory tier (disk is untouched). The GC endpoint
// calls it so a collected entry cannot outlive its disk copy in RAM.
func (t *Tier) Flush() {
	t.mu.Lock()
	t.ll.Init()
	t.items = make(map[string]*list.Element)
	t.bytes = 0
	t.mu.Unlock()
}

// Stats reports the tier's current occupancy.
func (t *Tier) Stats() (entries int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items), t.bytes
}

// admit inserts (or refreshes) a cache entry and evicts from the LRU
// tail until the tier fits its budget. A body larger than the whole
// budget is not cached at all — evicting everything to hold one giant
// entry would empty the tier for no win.
func (t *Tier) admit(key string, body []byte, meta store.Meta) {
	if t.maxBytes <= 0 {
		return
	}
	cost := int64(len(body))
	if cost > t.maxBytes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		e := el.Value.(*entry)
		t.bytes += cost - e.cost
		e.body, e.meta, e.cost = body, meta, cost
		t.ll.MoveToFront(el)
	} else {
		el := t.ll.PushFront(&entry{key: key, body: body, meta: meta, cost: cost})
		t.items[key] = el
		t.bytes += cost
		t.inserts.Inc()
	}
	for t.bytes > t.maxBytes {
		tail := t.ll.Back()
		if tail == nil {
			break
		}
		t.removeLocked(tail)
		t.evictions.Inc()
	}
}

// removeLocked unlinks one element (caller holds t.mu).
func (t *Tier) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	t.ll.Remove(el)
	delete(t.items, e.key)
	t.bytes -= e.cost
}
