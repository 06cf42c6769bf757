package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"time"

	"sgxbounds/internal/serve/sched"
)

// opKind says why an op is in the schedule; the check and the latency
// population both depend on it.
type opKind int

const (
	kindCold   opKind = iota // first submission of a distinct cell
	kindGrid                 // few-cell grid over cells earlier ops computed
	kindDup                  // same job as an op still in flight
	kindRepeat               // same job as an op that has finished
	kindWarm                 // fleet: a key computed during set-up
)

func (k opKind) String() string {
	return [...]string{"cold", "grid", "dup", "repeat", "warm"}[k]
}

// op is one scheduled submission.
type op struct {
	Seq  int
	At   time.Duration // scheduled send, from the start of the timed phase
	Kind opKind
	Req  sched.SubmitRequest
	Node int // index of the node it is sent to
}

// key is the job's content address (what the daemon dedupes on).
func (o *op) key() string { return o.Req.StoreKey() }

// arrivals returns n arrival offsets of a Poisson process on [0, span)
// conditioned on n arrivals: sorted independent uniforms. Fixing n keeps
// the offered work identical across seeds while the seed moves every gap.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// outcome is what the generator observed for one op.
type outcome struct {
	op          *op
	sent        bool          // a connection was acquired for the submit
	late        time.Duration // acquisition time - scheduled time
	submitEnd   time.Duration // submit answered, from the start of the timed phase
	resultStart time.Duration // result request sent
	done        time.Duration // result bytes in
	submitRTT   time.Duration // POST round trip
	resultRTT   time.Duration // GET result round trip
	coalesced   bool
	fromStore   bool
	status      sched.JobStatus
	body        string
	err         error
}

// latency is submit-to-result time measured from the op's scheduled send.
func (o *outcome) latency() time.Duration { return o.done - o.op.At }

// lateLimit is how late a send may start before the op counts as not sent
// on schedule (and so as failed).
const lateLimit = time.Second

// maxPoll caps the status-poll backoff (2 ms growing by half each poll),
// which bounds how late the generator notices a finished job.
const maxPoll = 10 * time.Millisecond

// client drives the ops of one schedule against sgxd nodes over HTTP.
type client struct {
	urls    []string
	clients []*http.Client
	timeout time.Duration // per op, from its scheduled send
}

// newClient builds HTTP clients holding at most nproc connections in
// total, split across the nodes (at least one each).
func newClient(urls []string, timeout time.Duration) *client {
	per := runtime.NumCPU() / len(urls)
	if per < 1 {
		per = 1
	}
	c := &client{urls: urls, timeout: timeout}
	for range urls {
		tr := &http.Transport{
			MaxConnsPerHost:     per,
			MaxIdleConnsPerHost: per,
			DisableCompression:  true,
		}
		c.clients = append(c.clients, &http.Client{Transport: tr, Timeout: 10 * time.Second})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.clients {
		hc.CloseIdleConnections()
	}
}

// run sends every op at its scheduled offset from start, without waiting
// for earlier ops, and returns one outcome per op (indexed by Seq).
func (c *client) run(ops []op, start time.Time) []outcome {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	for i := range ops {
		o := &ops[i]
		if d := time.Until(start.Add(o.At)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[o.Seq] = c.do(o, start)
		}()
	}
	wg.Wait()
	return out
}

// do runs one op: submit, poll the status until terminal (each poll is a
// short request, so waiting holds no connection), then fetch the result.
func (c *client) do(o *op, start time.Time) outcome {
	res := outcome{op: o}
	hc, base := c.clients[o.Node], c.urls[o.Node]
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(o.At+c.timeout))
	defer cancel()

	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) {
		if !res.sent {
			res.sent = true
			res.late = time.Since(start) - o.At
		}
	}}
	t0 := time.Now()
	code, hdr, err := postJSON(httptrace.WithClientTrace(ctx, trace), hc, base+"/api/v1/jobs", o.Req, &res.status)
	res.submitRTT = time.Since(t0)
	res.submitEnd = time.Since(start)
	switch {
	case err != nil:
		res.err = fmt.Errorf("submit: %w", err)
		return res
	case code != http.StatusCreated:
		res.err = fmt.Errorf("submit: HTTP %d", code)
		return res
	case res.late > lateLimit:
		res.err = fmt.Errorf("sent %s after its schedule", res.late.Round(time.Millisecond))
		return res
	}
	res.coalesced = hdr.Get("X-Sgxd-Coalesced") == "true"
	res.fromStore = res.status.FromStore

	wait := 2 * time.Millisecond
	for !res.status.State.Terminal() {
		select {
		case <-ctx.Done():
			res.err = fmt.Errorf("timed out in state %s", res.status.State)
			return res
		case <-time.After(wait):
		}
		if wait < maxPoll {
			wait = wait * 3 / 2
		}
		if err := getJSON(ctx, hc, base+"/api/v1/jobs/"+res.status.ID, &res.status); err != nil {
			res.err = fmt.Errorf("status: %w", err)
			return res
		}
	}
	if res.status.State != sched.StateDone {
		res.err = fmt.Errorf("job %s %s: %s", res.status.ID, res.status.State, res.status.Error)
		return res
	}
	t1 := time.Now()
	res.resultStart = t1.Sub(start)
	body, err := getBody(ctx, hc, base+"/api/v1/jobs/"+res.status.ID+"/result")
	res.resultRTT = time.Since(t1)
	if err != nil {
		res.err = fmt.Errorf("result: %w", err)
		return res
	}
	res.body = body
	res.done = time.Since(start)
	return res
}

func getBody(ctx context.Context, hc *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return string(b), nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	body, err := getBody(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}
