package cluster

import "sort"

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
// instead of re-transferring.

// replicateMax bounds the results re-replicated per heartbeat tick — the
// rate limit on rebalance traffic.
const replicateMax = 4

// rebalanceScan is the resumable cursor of one epoch's re-replication
// pass. keys stays nil until the first tick snapshots the manifest.
type rebalanceScan struct {
	keys []string
	next int
}

// rebalanceOnce advances the current re-replication scan by at most
// replicateMax pushed results. Push rules per key:
//
//   - owned locally (or unplaceable) → skip, advance
//   - owner's breaker open, owner not live, or owner unknown → skip,
//     advance (a later epoch change or the owner's own peer-fetch
//     read-through will cover it)
//   - push fails → stay on the key and retry next tick; the owner's
//     breaker eventually opens and unblocks the cursor, bounding retries
func (c *Cluster) rebalanceOnce() {
	c.mu.Lock()
	scan := c.rebal
	if scan == nil {
		c.mu.Unlock()
		return
	}
	if scan.keys == nil {
		keys := c.local.Manifest()
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

		if err := c.faults.Fire("cluster.rebalance", key); err != nil {
			return // injected stall: retry this key next tick
		}
		owner := c.ownerOf(key)
		if owner == "" || owner == c.self.ID || c.breakers.open(owner) {
			c.advance(scan)
			continue
		}
		peer, ok := c.nodeByID(owner)
		if !ok {
			c.advance(scan)
			continue
		}
		body, meta, ok := c.local.LoadResult(key)
		if !ok {
			c.advance(scan) // evicted since the snapshot
			continue
		}
		stored, err := c.pushResult(peer, ResultEnvelope{Meta: meta, Body: body})
		if err != nil {
			c.breakers.failure(owner)
			c.log.Printf("cluster: re-replication of %.12s… to %s failed: %v", key, owner, err)
			return // stay on this key; retry next tick
		}
		c.breakers.success(owner)
		if stored {
			c.rereplicated.Inc()
			c.log.Printf("cluster: re-replicated %.12s… to new owner %s", key, owner)
		}
		c.advance(scan)
		pushed++
	}
}

func (c *Cluster) advance(scan *rebalanceScan) {
	c.mu.Lock()
	if c.rebal == scan {
		scan.next++
	}
	c.mu.Unlock()
}

// Rebalancing reports whether an epoch-change re-replication scan is
// still in flight (used by Leave to wait for the final handoff, and by
// tests).
func (c *Cluster) Rebalancing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebal != nil
}
