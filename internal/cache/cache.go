// Package cache implements the set-associative cache simulator that models
// the on-die part of the memory hierarchy in Figure 2 of the paper: private
// per-core L1 and L2 caches and a shared last-level cache.
//
// The model is deliberately simple — physically-indexed, LRU per set,
// allocate-on-miss for both reads and writes, no prefetching — because the
// paper's arguments only need the first-order effect: metadata accesses that
// break locality (AddressSanitizer's shadow memory, MPX's bounds tables)
// cause more LLC misses than metadata that sits adjacent to the object
// (SGXBounds' lower bound after the object).
//
// The access path is the simulator's hottest host code (every simulated
// memory access probes at least the L1 model), so each set is packed for
// the host — contiguous uint32 tags and one LRU rank byte per way, updated
// a word at a time (see Cache) — and lookups are organised around two fast
// paths:
//
//   - an MRU probe: each set remembers its most-recently-used way, and a hit
//     there needs neither the tag scan nor a rank update (that way already
//     holds the top rank);
//   - range and batch entry points (AccessRange, AccessLines) that walk
//     cache lines with a stride, so the batched access pipeline pushes a
//     whole run of lines through one level in a single call.
package cache

import (
	"math/bits"
	"slices"
)

// LineShift is log2 of the cache line size.
const LineShift = 6

// LineSize is the cache line size in bytes (64, as on the paper's Skylake).
const LineSize = 1 << LineShift

// Config describes one cache level.
type Config struct {
	Size int // total bytes
	Ways int // associativity, 1 to 128
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / (LineSize * c.Ways) }

// maxWays is the largest supported associativity. A way's LRU rank is at
// most Ways-1 and must fit in seven bits, so the per-byte rank comparison
// in promote never carries into the neighbouring byte.
const maxWays = 128

// SWAR constants: the low and the high bit of every byte of a rank word.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// Cache is a single-level set-associative cache with per-set LRU
// replacement. Like the machine it belongs to, a Cache is owned by one
// goroutine; the private levels serve one simulated thread, and the LLC is
// shared by the machine's threads, which run in turn.
//
// Each set keeps its tags contiguously and its LRU order as one rank byte
// per way, eight to a uint64 word: the most recently used way has rank
// Ways-1, and rank 0 marks the victim. LRU only compares recency within a
// set, so ranks order the ways exactly as global access stamps would. A
// set starts (and restarts after Flush) with every rank 0, so free ways
// fill in index order; after each fill the filled ways hold the top ranks
// in recency order and the free ways keep rank 0. The victim is therefore
// the lowest-index zero byte — the way a scan for the oldest access stamp
// (first minimum wins) picks.
type Cache struct {
	ways      int
	rankWords int // uint64 rank words per set
	setMask   uint32
	lastValid uint64   // msbs restricted to the real ways of a set's last rank word
	tags      []uint32 // sets*ways line tags; 0 is "invalid" (line number stored +1)
	ranks     []uint64 // sets*rankWords packed rank bytes
	mru       []uint8  // per-set way index of the most recent hit/fill
}

// New builds a cache from cfg. It panics on a degenerate configuration.
func New(cfg Config) *Cache {
	if cfg.Ways < 1 || cfg.Ways > maxWays {
		panic("cache: associativity must be between 1 and 128")
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: number of sets must be a positive power of two")
	}
	rw := (cfg.Ways + 7) / 8
	lastValid := uint64(msbs)
	if n := cfg.Ways % 8; n != 0 {
		lastValid >>= 8 * (8 - n)
	}
	return &Cache{
		ways:      cfg.Ways,
		rankWords: rw,
		setMask:   uint32(sets - 1),
		lastValid: lastValid,
		tags:      make([]uint32, sets*cfg.Ways),
		ranks:     make([]uint64, sets*rw),
		mru:       make([]uint8, sets),
	}
}

// SetOf returns the set index the given line maps to. Fast paths outside
// the package use it to prove that two lines cannot interact in the
// replacement state (distinct sets never compete for ways or compare LRU
// ranks).
func (c *Cache) SetOf(line uint32) uint32 { return line & c.setMask }

// Access looks up the line containing addr, inserting it on a miss.
// It reports whether the access hit.
func (c *Cache) Access(addr uint32) bool {
	return c.AccessLine(addr >> LineShift)
}

// AccessLine is Access with the line number already computed. Line numbers
// are addr >> LineShift.
func (c *Cache) AccessLine(line uint32) bool {
	set := line & c.setMask
	tag := line + 1 // +1 so that a zeroed entry is invalid
	base := int(set) * c.ways
	// MRU fast probe: the set's most-recently-used way already holds the
	// top rank, so a hit there leaves the replacement state as it is.
	if c.tags[base+int(c.mru[set])] == tag {
		return true
	}
	tags := c.tags[base : base+c.ways]
	rs := c.ranks[int(set)*c.rankWords : (int(set)+1)*c.rankWords]
	for i, t := range tags {
		if t == tag {
			c.promote(rs, i, rs[i>>3]>>(uint(i&7)*8)&0xff)
			c.mru[set] = uint8(i)
			return true
		}
	}
	victim := c.victim(rs)
	tags[victim] = tag
	c.promote(rs, victim, 0)
	c.mru[set] = uint8(victim)
	return false
}

// promote makes way, of rank r, the set's most recently used: every rank
// above r drops by one, a word at a time, and the way takes the top rank.
func (c *Cache) promote(rs []uint64, way int, r uint64) {
	// Bytes are below 128, so x + 127 - r sets a byte's high bit exactly
	// when x > r and never carries out of the byte.
	k := (0x7f - r) * lsbs
	for j, x := range rs {
		rs[j] = x - (x+k)&msbs>>7
	}
	w, sh := way>>3, uint(way&7)*8
	rs[w] = rs[w]&^(0xff<<sh) | uint64(c.ways-1)<<sh
}

// victim returns the lowest-index way of rank 0. Every set has one: ranks
// are distinct apart from the zeros of free ways.
func (c *Cache) victim(rs []uint64) int {
	last := len(rs) - 1
	for j, x := range rs {
		// The lowest set high bit of (x - lsbs) &^ x marks x's lowest zero
		// byte; borrows only produce false marks above it.
		z := (x - lsbs) &^ x & msbs
		if j == last {
			z &= c.lastValid
		}
		if z != 0 {
			return j*8 + bits.TrailingZeros64(z)>>3
		}
	}
	panic("cache: set has no rank-0 way")
}

// AccessRange walks the inclusive line range [first, last] through the
// cache, appending the lines that missed to miss and returning it. The
// resulting cache state is identical to calling AccessLine per line in
// ascending order.
func (c *Cache) AccessRange(first, last uint32, miss []uint32) []uint32 {
	for line := first; ; line++ {
		if !c.AccessLine(line) {
			miss = append(miss, line)
		}
		if line == last {
			break
		}
	}
	return miss
}

// AccessLines runs each line through the cache in order, appending the lines
// that missed to miss and returning it.
func (c *Cache) AccessLines(lines []uint32, miss []uint32) []uint32 {
	for _, line := range lines {
		if !c.AccessLine(line) {
			miss = append(miss, line)
		}
	}
	return miss
}

// Contains reports whether the line holding addr is present, without
// updating replacement state. Intended for tests.
func (c *Cache) Contains(addr uint32) bool {
	line := addr >> LineShift
	base := int(line&c.setMask) * c.ways
	return slices.Contains(c.tags[base:base+c.ways], line+1)
}

// Flush invalidates the entire cache.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.ranks)
	clear(c.mru)
}
