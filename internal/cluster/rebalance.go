package cluster

import (
	"sort"

	"sgxbounds/internal/bench"
)

// Re-replication: after every membership epoch change, each node walks
// its own store manifest and pushes verified copies of the results it no
// longer owns to their new owner. The push reuses the peer-fetch envelope
// in reverse — the receiver re-verifies key/version/size/sha256 before
// anything touches its disk — so a corrupted transfer degrades to "the
// new owner recomputes or peer-fetches later", never to a bad result.
//
// The scan is deliberately lazy and rate-limited: the manifest snapshots
// on the first tick after the epoch change, then at most replicateMax
// keys move per heartbeat tick. A scan interrupted by another epoch change
// simply restarts against the new ring (the cursor state is an
// epoch-scoped field, reset by installViewLocked); keys already pushed are
// deduplicated by the receiver's store, so a restart re-verifies cheaply
// instead of re-transferring. A key whose push fails is retried on the
// next tick, at most pushAttempts times in a row, and then skipped: an
// owner that answers heartbeats but refuses pushes cannot stall a scan, or
// a Leave that waits for one.

// replicateMax bounds the results re-replicated per heartbeat tick — the
// rate limit on rebalance traffic.
const replicateMax = 4

// pushAttempts bounds the consecutive failed pushes of one key before the
// scan skips it.
const pushAttempts = 3

// rebalanceScan is the resumable cursor of one epoch's re-replication
// pass. keys stays nil until the first tick snapshots the manifest.
type rebalanceScan struct {
	keys  []string
	next  int
	fails int // consecutive failed pushes of keys[next]
}

// rebalanceOnce advances the current re-replication scan by at most
// replicateMax pushed results. Push rules per key:
//
//   - owned locally (or unplaceable) → skip, advance
//   - owner unknown, or no longer stored here → skip, advance (a later
//     epoch change or the owner's own peer-fetch read-through will cover
//     it)
//   - push fails → stay on the key and retry next tick; after
//     pushAttempts failures in a row, skip it
func (c *Cluster) rebalanceOnce() {
	c.mu.Lock()
	scan := c.rebal
	if scan == nil {
		c.mu.Unlock()
		return
	}
	if scan.keys == nil {
		keys := c.manifest()
		sort.Strings(keys)
		scan.keys = keys
		if len(keys) > 0 {
			c.log.Printf("cluster: epoch %d re-replication scan over %d stored results", c.view.Epoch, len(keys))
		}
	}
	c.mu.Unlock()

	pushed := 0
	for pushed < replicateMax {
		c.mu.Lock()
		if c.rebal != scan { // a newer epoch restarted the scan
			c.mu.Unlock()
			return
		}
		if scan.next >= len(scan.keys) {
			c.rebal = nil
			c.mu.Unlock()
			return
		}
		key := scan.keys[scan.next]
		c.mu.Unlock()

		owner := c.ownerOf(key)
		if owner == "" || owner == c.self.ID {
			c.advance(scan)
			continue
		}
		peer, ok := c.nodeByID(owner)
		if !ok {
			c.advance(scan)
			continue
		}
		body, meta, ok := c.store.Get(key, bench.SimVersion)
		if !ok {
			c.advance(scan) // evicted since the snapshot
			continue
		}
		stored, err := c.pushResult(peer, ResultEnvelope{Meta: meta, Body: body})
		if err != nil {
			if !c.pushFailed(scan) {
				c.log.Printf("cluster: re-replication of %.12s… to %s failed: %v; retrying next tick", key, owner, err)
				return
			}
			c.log.Printf("cluster: re-replication of %.12s… to %s failed %d times in a row: %v; skipping it", key, owner, pushAttempts, err)
			continue
		}
		if stored {
			c.rereplicated.Inc()
			c.log.Printf("cluster: re-replicated %.12s… to new owner %s", key, owner)
		}
		c.advance(scan)
		pushed++
	}
}

// manifest lists the stored keys for the running simulator version — the
// scan set for re-replication.
func (c *Cluster) manifest() []string {
	keys, err := c.store.Keys()
	if err != nil {
		return nil
	}
	current := keys[:0]
	for _, key := range keys {
		if meta, ok := c.store.Stat(key); ok && meta.Version == bench.SimVersion {
			current = append(current, key)
		}
	}
	return current
}

func (c *Cluster) advance(scan *rebalanceScan) {
	c.mu.Lock()
	if c.rebal == scan {
		scan.next++
		scan.fails = 0
	}
	c.mu.Unlock()
}

// pushFailed counts a failed push of the key under the cursor and reports
// whether the scan gives up on it (and has moved past it).
func (c *Cluster) pushFailed(scan *rebalanceScan) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rebal != scan {
		return false
	}
	scan.fails++
	if scan.fails < pushAttempts {
		return false
	}
	scan.next++
	scan.fails = 0
	return true
}

// Rebalancing reports whether an epoch-change re-replication scan is
// still in flight (used by Leave to wait for the final handoff, and by
// tests).
func (c *Cluster) Rebalancing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebal != nil
}
