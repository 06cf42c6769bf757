// Package faultline is a deterministic, seedable fault-injection layer for
// the serving stack: the machinery that lets tests and operators subject
// sgxd to the hostile conditions the paper argues about — flaky store I/O,
// silently corrupted bytes, slow or poisoned cells, and processes that die
// at the worst possible instruction — and replay the exact same storm on
// every run.
//
// An Injector is built from a Spec (a seed plus a list of Rules) and wired
// into code by naming fault sites: the store fires "store.write.body",
// "store.read.meta", ...; the serve layer fires "engine.cell" per executed
// cell and "crash.<point>" at named barriers; the cluster layer fires
// "cluster.peer.fetch" and "cluster.peer.body" around the peer
// read-through (error → miss, bitflip → corrupt-on-the-wire), and
// "cluster.peer.replicate" on each pushed result (error → the push fails;
// it is retried next tick, up to 3 times in a row, then skipped). A Rule
// matches a site by op pattern (exact, or a trailing-* prefix glob) and
// optionally by a substring of the site's detail (a store key, a cell
// label), then fires
// with a deterministic pseudo-random decision derived from (seed, rule,
// hit count) — no wall clock, no global rand — so a given spec produces
// the same fault sequence against the same operation stream every time.
//
// Every method is nil-safe on the receiver: a nil *Injector injects
// nothing and costs one branch, so production paths carry the hooks
// unconditionally.
package faultline

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// Fault kinds a Rule can inject.
const (
	KindError      = "error"       // Fire returns an *Fault error
	KindDelay      = "delay"       // Fire sleeps DelayMS
	KindPanic      = "panic"       // Fire panics with an *Fault
	KindCrash      = "crash"       // Fire aborts the process (exit 137, no cleanup)
	KindBitflip    = "bitflip"     // Mutate flips one deterministic bit
	KindShortWrite = "short_write" // Mutate truncates the data
)

// CrashExitCode is the exit status of an injected crash — the same value a
// SIGKILLed process reports, because that is what a crash point simulates.
const CrashExitCode = 137

// Rule arms one fault at matching sites.
type Rule struct {
	// Op names the fault site: exact match, or a prefix glob with a
	// trailing '*' ("store.write.*", "store.*").
	Op string `json:"op"`
	// Match, when non-empty, additionally requires the site detail (store
	// key, cell label, crash-point name) to contain this substring.
	Match string `json:"match,omitempty"`
	// Kind selects the fault (see the Kind constants).
	Kind string `json:"kind"`
	// Rate is the per-hit fire probability in [0,1]; 0 means 1 (always).
	Rate float64 `json:"rate,omitempty"`
	// After skips the first After matching hits before firing can begin.
	After int `json:"after,omitempty"`
	// Times bounds the number of fires (0 = unlimited).
	Times int `json:"times,omitempty"`
	// DelayMS is the sleep for delay rules (default 50ms).
	DelayMS int `json:"delay_ms,omitempty"`
}

// Spec is the JSON form a fault storm is written in (`sgxd -faults spec.json`).
type Spec struct {
	// Seed derives every fire decision; the same seed and rule list replay
	// the same faults against the same operation stream.
	Seed uint64 `json:"seed"`
	// Rules are evaluated in order at every matching site.
	Rules []Rule `json:"rules"`
}

// Fault is the error/panic value of an injected fault, so callers can tell
// injected (transient, retryable) failures from organic ones with IsFault.
type Fault struct {
	Op     string
	Detail string
	Kind   string
	Rule   int // index into the spec's rule list
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultline: injected %s fault at %s (%s)", f.Kind, f.Op, f.Detail)
}

// IsFault reports whether err (or a recovered panic value) is an injected
// fault.
func IsFault(v any) bool {
	switch e := v.(type) {
	case *Fault:
		return true
	case error:
		for e != nil {
			if _, ok := e.(*Fault); ok {
				return true
			}
			u, ok := e.(interface{ Unwrap() error })
			if !ok {
				return false
			}
			e = u.Unwrap()
		}
	}
	return false
}

// ruleState is one armed rule plus its atomic hit/fire accounting.
type ruleState struct {
	Rule
	hits  atomic.Uint64 // matching invocations seen
	fires atomic.Uint64 // faults actually injected
}

// Injector evaluates a Spec at named fault sites. Safe for concurrent use.
type Injector struct {
	seed  uint64
	rules []*ruleState
	// Exit aborts the process for crash rules; tests may replace it. The
	// default prints the crash point to stderr and exits CrashExitCode
	// without running deferred cleanup, like a SIGKILL would.
	Exit func(point string)
}

// New arms a spec. A nil return (from a zero spec) is a valid, inert
// injector — all methods are nil-safe.
func New(spec Spec) *Injector {
	if len(spec.Rules) == 0 {
		return nil
	}
	inj := &Injector{seed: spec.Seed}
	for _, r := range spec.Rules {
		if r.Rate <= 0 || r.Rate > 1 {
			r.Rate = 1
		}
		if r.DelayMS <= 0 {
			r.DelayMS = 50
		}
		inj.rules = append(inj.rules, &ruleState{Rule: r})
	}
	inj.Exit = func(point string) {
		fmt.Fprintf(os.Stderr, "faultline: crash point %q reached, aborting\n", point)
		os.Exit(CrashExitCode)
	}
	return inj
}

// Load reads and arms a JSON spec file.
func Load(path string) (*Injector, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultline: %w", err)
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("faultline: parse %s: %w", path, err)
	}
	for i, r := range spec.Rules {
		switch r.Kind {
		case KindError, KindDelay, KindPanic, KindCrash, KindBitflip, KindShortWrite:
		default:
			return nil, fmt.Errorf("faultline: %s: rule %d has unknown kind %q", path, i, r.Kind)
		}
		if r.Op == "" {
			return nil, fmt.Errorf("faultline: %s: rule %d has no op", path, i)
		}
	}
	return New(spec), nil
}

func matchOp(pattern, op string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(op, pattern[:len(pattern)-1])
	}
	return pattern == op
}

// Hash64 is the package's stateless decision hash (splitmix64), exported
// for callers that need the same seeded, replayable randomness faultline
// uses — protocheck derives its random-walk schedule choices from
// Hash64(seed, step) so a walk replays exactly from its seed alone.
func Hash64(seed, n uint64) uint64 { return splitmix64(seed ^ n) }

// splitmix64 is the decision hash: cheap, well-mixed, and stateless, so a
// fire decision depends only on (seed, rule index, hit ordinal).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide reports whether rule i fires on this hit, advancing the rule's
// deterministic hit counter.
func (inj *Injector) decide(i int, r *ruleState, op, detail string) bool {
	if !matchOp(r.Op, op) {
		return false
	}
	if r.Match != "" && !strings.Contains(detail, r.Match) {
		return false
	}
	n := r.hits.Add(1) // 1-based ordinal of this matching hit
	if int(n) <= r.After {
		return false
	}
	if r.Rate < 1 {
		roll := splitmix64(inj.seed ^ uint64(i)<<32 ^ n)
		if float64(roll>>11)/(1<<53) >= r.Rate {
			return false
		}
	}
	if r.Times > 0 {
		for {
			f := r.fires.Load()
			if f >= uint64(r.Times) {
				return false
			}
			if r.fires.CompareAndSwap(f, f+1) {
				return true
			}
		}
	}
	r.fires.Add(1)
	return true
}

// Fire evaluates the behavioural rules (error, delay, panic, crash) at a
// site. Delay rules sleep inline; crash rules abort the process; panic
// rules panic with an *Fault; the first firing error rule is returned.
func (inj *Injector) Fire(op, detail string) error {
	if inj == nil {
		return nil
	}
	var firstErr error
	for i, r := range inj.rules {
		switch r.Kind {
		case KindError, KindDelay, KindPanic, KindCrash:
		default:
			continue
		}
		if !inj.decide(i, r, op, detail) {
			continue
		}
		switch r.Kind {
		case KindDelay:
			time.Sleep(time.Duration(r.DelayMS) * time.Millisecond)
		case KindCrash:
			inj.Exit(op + "/" + detail)
		case KindPanic:
			panic(&Fault{Op: op, Detail: detail, Kind: KindPanic, Rule: i})
		case KindError:
			if firstErr == nil {
				firstErr = &Fault{Op: op, Detail: detail, Kind: KindError, Rule: i}
			}
		}
	}
	return firstErr
}

// Crash fires only crash rules at a named barrier ("crash points"): a rule
// with op "crash.<name>" (or a glob covering it) aborts the process there.
func (inj *Injector) Crash(point string) {
	if inj == nil {
		return
	}
	for i, r := range inj.rules {
		if r.Kind != KindCrash {
			continue
		}
		if inj.decide(i, r, "crash."+point, point) {
			inj.Exit(point)
		}
	}
}

// Mutate evaluates the data rules (bitflip, short_write) at a site and
// returns the possibly-corrupted copy; with no firing rule it returns data
// unchanged (and unaliased decisions — the original slice).
func (inj *Injector) Mutate(op, detail string, data []byte) []byte {
	if inj == nil {
		return data
	}
	for i, r := range inj.rules {
		switch r.Kind {
		case KindBitflip, KindShortWrite:
		default:
			continue
		}
		if !inj.decide(i, r, op, detail) || len(data) == 0 {
			continue
		}
		n := r.fires.Load()
		out := append([]byte(nil), data...)
		switch r.Kind {
		case KindBitflip:
			pos := splitmix64(inj.seed^uint64(i)<<16^n) % uint64(len(out))
			out[pos] ^= 1 << (splitmix64(n^uint64(i)) % 8)
		case KindShortWrite:
			out = out[:splitmix64(inj.seed^n)%uint64(len(out))]
		}
		data = out
	}
	return data
}

// Counts reports fires per rule, keyed "op/kind" (summing rules that share
// both), for tests and the /metrics exposition.
func (inj *Injector) Counts() map[string]uint64 {
	if inj == nil {
		return nil
	}
	out := make(map[string]uint64, len(inj.rules))
	for _, r := range inj.rules {
		out[r.Op+"/"+r.Kind] += r.fires.Load()
	}
	return out
}

// Total reports the total number of injected faults.
func (inj *Injector) Total() uint64 {
	if inj == nil {
		return 0
	}
	var n uint64
	for _, r := range inj.rules {
		n += r.fires.Load()
	}
	return n
}
