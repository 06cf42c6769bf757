// Command sgxctl is the client for sgxd, the experiment daemon.
//
// Usage:
//
//	sgxctl [-addr URL] <command> [args]
//
// Commands:
//
//	submit <experiment> [-threads N] [-requests N] [-size S] [-workloads a,b]
//	       [-policies a,b] [-parallel N] [-deadline D] [-trace] [-force]
//	       submit a job; prints the job ID on stdout
//	status [<job-id>]      one job's status, or every job
//	wait <job-id>          block until the job is terminal; exit 0 only on done
//	result <job-id> [-csv NAME] [-o FILE]
//	                       fetch the result text (or one CSV grid)
//	progress <job-id>      stream the job's progress lines
//	profile <job-id> [-o FILE]
//	                       download the telemetry run profile
//	cancel <job-id>        cancel a queued or running job
//	quarantine ls          list parked poison jobs (panicked/timed out N times)
//	requeue <job-id>       release a quarantined job as a fresh submission
//	                       (any cluster node releases it where it is parked)
//	experiments            list runnable experiments
//	cluster status         membership table (with epoch) as this node sees it
//	cluster join <seed>    tell this daemon to join the fleet at seed's URL
//	cluster leave          gracefully drain and depart this daemon's node
//	cluster quarantine ls  fleet-wide quarantine view (all nodes)
//	gc                     sweep stale results from the store
//	ping                   check the daemon is up (liveness)
//	ready                  check the daemon accepts work (readiness)
//
// The daemon address comes from -addr, else $SGXD_ADDR, else
// http://127.0.0.1:7483.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"sgxbounds/internal/cluster"
	"sgxbounds/internal/serve"
)

func main() {
	addr := flag.String("addr", defaultAddr(), "sgxd base URL")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*addr, "/"), out: os.Stdout, errOut: os.Stderr}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		err = c.submit(rest)
	case "status":
		err = c.status(rest)
	case "wait":
		err = c.wait(rest)
	case "result":
		err = c.result(rest)
	case "progress":
		err = c.progress(rest)
	case "profile":
		err = c.profile(rest)
	case "cancel":
		err = c.cancel(rest)
	case "quarantine":
		err = c.quarantine(rest)
	case "requeue":
		err = c.requeue(rest)
	case "experiments":
		err = c.experiments()
	case "cluster":
		err = c.cluster(rest)
	case "gc":
		err = c.gc()
	case "ping":
		err = c.ping()
	case "ready":
		err = c.ready()
	default:
		fmt.Fprintf(os.Stderr, "sgxctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgxctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sgxctl [-addr URL] <command> [args]

commands:
  submit <experiment> [flags]   submit a job (prints the job ID)
  status [<job-id>]             job status (all jobs when no ID)
  wait <job-id>                 block until terminal; exit 0 only on done
  result <job-id> [-csv NAME] [-o FILE]
  progress <job-id>             stream progress lines
  profile <job-id> [-o FILE]    download the telemetry run profile
  cancel <job-id>
  quarantine ls                 list parked poison jobs
  requeue <job-id>              release a quarantined job (from any cluster node)
  experiments                   list runnable experiments
  cluster status                membership table (with epoch) as this node sees it
  cluster join <seed-url>       tell this daemon to join the fleet at seed
  cluster leave                 gracefully drain and depart this daemon's node
  cluster quarantine ls         fleet-wide quarantine view
  gc                            sweep stale store entries
  ping                          liveness
  ready                         readiness (journal replayed, store writable)

address: -addr, else $SGXD_ADDR, else http://127.0.0.1:7483
`)
}

func defaultAddr() string {
	if a := os.Getenv("SGXD_ADDR"); a != "" {
		return a
	}
	return "http://127.0.0.1:7483"
}

// client carries the daemon address plus the command's two output streams:
// machine-readable results (job IDs, tables) go to out, human commentary to
// errOut. Injectable so the golden tests can capture both.
type client struct {
	base   string
	out    io.Writer
	errOut io.Writer
}

// api performs one JSON round trip; a non-2xx response decodes the server's
// {"error": ...} envelope into an error.
func (c *client) api(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiError(resp *http.Response) error {
	raw, _ := io.ReadAll(resp.Body)
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, env.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	threads := fs.Int("threads", 0, "worker threads (threaded experiments)")
	requests := fs.Int("requests", 0, "requests per measurement (fig13)")
	size := fs.String("size", "", "working-set size class (grid)")
	workloadsF := fs.String("workloads", "", "comma-separated workloads (grid)")
	policies := fs.String("policies", "", "comma-separated policies (grid)")
	epcBytes := fs.Uint64("epc-bytes", 0, "EPC capacity override for EPC-aware experiments (0 = server default)")
	parallel := fs.Int("parallel", 0, "engine workers for this job")
	deadline := fs.Duration("deadline", 0, "per-attempt deadline (0 = server default)")
	trace := fs.Bool("trace", false, "record structured events in the profile")
	force := fs.Bool("force", false, "recompute even on a store hit")
	// Accept `submit fig1 -force` as well as `submit -force fig1`: lift a
	// leading experiment name out so the flag parser sees only flags.
	experiment := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		experiment, args = args[0], args[1:]
	}
	fs.Parse(args)
	if experiment == "" && fs.NArg() == 1 {
		experiment = fs.Arg(0)
	} else if fs.NArg() != 0 || experiment == "" {
		return fmt.Errorf("usage: submit <experiment> [flags]")
	}
	req := serve.SubmitRequest{
		Experiment: experiment,
		Threads:    *threads,
		Requests:   *requests,
		Size:       *size,
		Workloads:  splitList(*workloadsF),
		Policies:   splitList(*policies),
		EPCBytes:   *epcBytes,
		Parallel:   *parallel,
		DeadlineMS: deadline.Milliseconds(),
		Trace:      *trace,
		Force:      *force,
	}
	var st serve.JobStatus
	if err := c.api(http.MethodPost, "/api/v1/jobs", req, &st); err != nil {
		return err
	}
	// Bare ID on stdout so scripts can capture it; detail on stderr.
	fmt.Fprintf(c.errOut, "job %s %s (key %s...)\n", st.ID, st.State, st.Key[:12])
	fmt.Fprintln(c.out, st.ID)
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func (c *client) printStatus(st serve.JobStatus) {
	line := fmt.Sprintf("%s\t%s\t%s", st.ID, st.State, st.Job.Experiment)
	if st.FromStore {
		line += "\t(from store)"
	}
	if st.State == serve.StateDone && !st.FromStore {
		line += fmt.Sprintf("\t%dms\t%d cells", st.ElapsedMS, st.Cells.Runs)
	}
	if st.Error != "" {
		line += "\t" + st.Error
	}
	fmt.Fprintln(c.out, line)
}

func (c *client) status(args []string) error {
	if len(args) == 0 {
		var all []serve.JobStatus
		if err := c.api(http.MethodGet, "/api/v1/jobs", nil, &all); err != nil {
			return err
		}
		for _, st := range all {
			c.printStatus(st)
		}
		return nil
	}
	var st serve.JobStatus
	if err := c.api(http.MethodGet, "/api/v1/jobs/"+args[0], nil, &st); err != nil {
		return err
	}
	c.printStatus(st)
	return nil
}

func (c *client) wait(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: wait <job-id>")
	}
	for {
		var st serve.JobStatus
		if err := c.api(http.MethodGet, "/api/v1/jobs/"+args[0], nil, &st); err != nil {
			return err
		}
		if st.State.Terminal() {
			c.printStatus(st)
			if st.State != serve.StateDone {
				os.Exit(1)
			}
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// fetchTo streams a GET body to -o (default stdout).
func (c *client) fetchTo(path, out string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	w := c.out
	if out != "" && out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func (c *client) result(args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	csvName := fs.String("csv", "", "fetch this CSV grid instead of the table text")
	out := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: result <job-id> [-csv NAME] [-o FILE]")
	}
	path := "/api/v1/jobs/" + fs.Arg(0) + "/result"
	if *csvName != "" {
		path += "?csv=" + *csvName
	}
	return c.fetchTo(path, *out)
}

func (c *client) progress(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: progress <job-id>")
	}
	return c.fetchTo("/api/v1/jobs/"+args[0]+"/progress", "")
}

func (c *client) profile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	out := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: profile <job-id> [-o FILE]")
	}
	return c.fetchTo("/api/v1/jobs/"+fs.Arg(0)+"/profile", *out)
}

func (c *client) cancel(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cancel <job-id>")
	}
	var st serve.JobStatus
	if err := c.api(http.MethodDelete, "/api/v1/jobs/"+args[0], nil, &st); err != nil {
		return err
	}
	c.printStatus(st)
	return nil
}

// quarantine lists the parked poison jobs with their fault context.
func (c *client) quarantine(args []string) error {
	if len(args) != 0 && !(len(args) == 1 && args[0] == "ls") {
		return fmt.Errorf("usage: quarantine ls")
	}
	var jobs []serve.JobStatus
	if err := c.api(http.MethodGet, "/api/v1/quarantine", nil, &jobs); err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Fprintln(c.out, "quarantine empty")
		return nil
	}
	for _, st := range jobs {
		fmt.Fprintf(c.out, "%s\t%s\tattempts=%d\t%s\n", st.ID, st.Job.Experiment, st.Attempts, st.Error)
	}
	return nil
}

// requeue releases one quarantined job; prints the replacement job's ID on
// stdout (like submit) so scripts can chain into wait/result.
func (c *client) requeue(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: requeue <job-id>")
	}
	var out struct {
		Quarantined serve.JobStatus `json:"quarantined"`
		Requeued    serve.JobStatus `json:"requeued"`
	}
	if err := c.api(http.MethodPost, "/api/v1/quarantine/"+args[0]+"/requeue", nil, &out); err != nil {
		return err
	}
	fmt.Fprintf(c.errOut, "job %s released as %s (%s)\n",
		out.Quarantined.ID, out.Requeued.ID, out.Requeued.State)
	fmt.Fprintln(c.out, out.Requeued.ID)
	return nil
}

func (c *client) experiments() error {
	var infos []serve.ExperimentInfo
	if err := c.api(http.MethodGet, "/api/v1/experiments", nil, &infos); err != nil {
		return err
	}
	for _, info := range infos {
		var params []string
		if info.UsesThreads {
			params = append(params, "threads")
		}
		if info.UsesRequests {
			params = append(params, "requests")
		}
		if info.UsesGrid {
			params = append(params, "grid")
		}
		suffix := ""
		if len(params) > 0 {
			suffix = " [" + strings.Join(params, ",") + "]"
		}
		fmt.Fprintf(c.out, "%-8s %s%s\n", info.Name, info.Desc, suffix)
	}
	return nil
}

// cluster drives the membership: status table, join/leave churn, and the
// fleet-wide quarantine view.
func (c *client) cluster(args []string) error {
	const usage = "usage: cluster status | join <seed-url> | leave | quarantine ls"
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "status":
		return c.clusterStatus()
	case "join":
		return c.clusterJoin(rest)
	case "leave":
		return c.clusterLeave(rest)
	case "quarantine":
		return c.clusterQuarantine(rest)
	default:
		return errors.New(usage)
	}
}

// clusterStatus prints one row per member: the daemon itself first, then
// its peers with liveness as judged by heartbeat age. The epoch line pins
// which membership version the table describes.
func (c *client) clusterStatus() error {
	st, err := c.fetchClusterStatus()
	if err != nil {
		return err
	}
	c.printClusterStatus(st)
	return nil
}

func (c *client) fetchClusterStatus() (cluster.Status, error) {
	var st cluster.Status
	err := c.api(http.MethodGet, "/api/v1/cluster/status", nil, &st)
	return st, err
}

func (c *client) printClusterStatus(st cluster.Status) {
	fmt.Fprintf(c.out, "epoch %d\n", st.Epoch)
	fmt.Fprintf(c.out, "%-8s %-8s %6s %7s  %s\n", "NODE", "STATE", "QUEUED", "PENDING", "ADDR")
	for _, n := range st.Nodes {
		state := "alive"
		switch {
		case n.Self:
			state = "self"
		case !n.Alive:
			state = "dead"
		}
		if n.Leaving {
			state = "leaving"
		}
		fmt.Fprintf(c.out, "%-8s %-8s %6d %7d  %s\n", n.ID, state, n.Queued, n.Pending, n.Addr)
	}
}

// clusterJoin tells the daemon at -addr to join the fleet reachable at
// the seed URL, then prints the resulting membership.
func (c *client) clusterJoin(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cluster join <seed-url>")
	}
	var st cluster.Status
	if err := c.api(http.MethodPost, "/api/v1/cluster/join", map[string]string{"seed": args[0]}, &st); err != nil {
		return err
	}
	fmt.Fprintf(c.errOut, "joined fleet via %s\n", args[0])
	c.printClusterStatus(st)
	return nil
}

// clusterLeave starts a graceful departure of the daemon at -addr and, by
// default, polls until it has drained and departed.
func (c *client) clusterLeave(args []string) error {
	fs := flag.NewFlagSet("cluster leave", flag.ExitOnError)
	wait := fs.Bool("wait", true, "poll until the node has departed")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up waiting after this long")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: cluster leave [-wait=false] [-timeout D]")
	}
	if err := c.api(http.MethodPost, "/api/v1/cluster/leave", struct{}{}, nil); err != nil {
		return err
	}
	fmt.Fprintln(c.errOut, "leave accepted: draining")
	if !*wait {
		return nil
	}
	deadline := time.Now().Add(*timeout)
	for {
		st, err := c.fetchClusterStatus()
		if err == nil && st.Departed {
			fmt.Fprintln(c.out, "departed")
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node still draining after %s (leave continues in the daemon)", *timeout)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// clusterQuarantine prints the fleet-wide quarantine view. A listed job is
// released from any node with requeue: its ID names the node holding it.
func (c *client) clusterQuarantine(args []string) error {
	if len(args) != 1 || args[0] != "ls" {
		return fmt.Errorf("usage: cluster quarantine ls")
	}
	var rep cluster.QuarantineReport
	if err := c.api(http.MethodGet, "/api/v1/cluster/quarantine", nil, &rep); err != nil {
		return err
	}
	total := 0
	fmt.Fprintf(c.out, "%-8s %-12s %-10s %8s  %s\n", "NODE", "JOB", "EXPERIMENT", "ATTEMPTS", "ERROR")
	for _, n := range rep.Nodes {
		for _, st := range n.Jobs {
			total++
			fmt.Fprintf(c.out, "%-8s %-12s %-10s %8d  %s\n", n.ID, st.ID, st.Job.Experiment, st.Attempts, st.Error)
		}
	}
	if total == 0 {
		fmt.Fprintln(c.out, "quarantine empty fleet-wide")
	}
	return nil
}

func (c *client) gc() error {
	var out struct {
		Removed int `json:"removed"`
		Stats   struct {
			Entries   int   `json:"entries"`
			BodyBytes int64 `json:"body_bytes"`
		} `json:"stats"`
	}
	if err := c.api(http.MethodPost, "/api/v1/gc", nil, &out); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "removed %d stale entries; %d kept (%d bytes)\n",
		out.Removed, out.Stats.Entries, out.Stats.BodyBytes)
	return nil
}

func (c *client) ping() error {
	resp, err := http.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	fmt.Fprintln(c.out, "ok")
	return nil
}

// ready checks the daemon's readiness probe; exit 0 only when it accepts
// work.
func (c *client) ready() error {
	var rd struct {
		Ready bool   `json:"ready"`
		Store string `json:"store"`
		Queue string `json:"queue"`
	}
	if err := c.api(http.MethodGet, "/readyz", nil, &rd); err != nil {
		return err
	}
	fmt.Fprintln(c.out, "ready")
	return nil
}
