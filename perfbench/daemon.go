package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one sgxd process started by the benchmark.
type node struct {
	id    string
	addr  string // host:port
	url   string // http://host:port
	args  []string
	bin   string
	dir   string // store lives at dir/store, journal at dir/journal.jsonl
	log   *os.File
	cmd   *exec.Cmd
	exit  chan struct{}
	httpc *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newNode(bin, id, dir string) (*node, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &node{
		id: id, addr: addr, url: "http://" + addr, bin: bin, dir: dir,
		httpc: &http.Client{Timeout: 5 * time.Second},
	}, nil
}

// start launches sgxd over the node's store directory with the given extra
// flags (the defaults otherwise, journal on), without waiting for it.
func (n *node) start(extra ...string) error {
	args := append([]string{"-addr", n.addr, "-store", filepath.Join(n.dir, "store")}, extra...)
	logf, err := os.OpenFile(filepath.Join(n.dir, "sgxd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(n.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = diesWithParent()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start sgxd %s: %w", n.id, err)
	}
	n.cmd, n.log, n.exit = cmd, logf, make(chan struct{})
	go func() {
		cmd.Wait()
		close(n.exit)
	}()
	return nil
}

// diesWithParent makes a child process get SIGKILL if the benchmark dies
// first, so a killed run leaves no daemon behind.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// readyPoll is how often waitReady asks /readyz. A boot takes about 10 ms,
// so the poll must be much finer than that for the boot time to be
// measured rather than rounded.
const readyPoll = 100 * time.Microsecond

// waitReady polls /readyz until it answers 200.
func (n *node) waitReady(deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		select {
		case <-n.exit:
			return fmt.Errorf("sgxd %s exited during boot (see %s)", n.id, filepath.Join(n.dir, "sgxd.log"))
		default:
		}
		resp, err := n.httpc.Get(n.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("sgxd %s not ready after %s", n.id, deadline)
}

// stop asks sgxd to drain (SIGTERM) and waits for it to exit, killing it
// if it does not within the grace period.
func (n *node) stop() {
	if n.cmd == nil {
		return
	}
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.exit:
	case <-time.After(15 * time.Second):
		n.cmd.Process.Kill()
		<-n.exit
	}
	n.log.Close()
	n.cmd = nil
}

// cpuSeconds reads user+sys CPU of the whole process from /proc.
func (n *node) cpuSeconds() (float64, error) {
	return procCPU(n.cmd.Process.Pid)
}

// peakRSSMB reads VmHWM of the process from /proc.
func (n *node) peakRSSMB() (float64, error) {
	return procHWM(n.cmd.Process.Pid)
}

func (n *node) metrics() (map[string]float64, error) {
	resp, err := n.httpc.Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

// clusterConverged reports whether the node sees every member alive.
func (n *node) clusterConverged(members int) bool {
	resp, err := n.httpc.Get(n.url + "/api/v1/cluster/status")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var st struct {
		Nodes []struct {
			Alive bool `json:"alive"`
		} `json:"nodes"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return false
	}
	alive := 0
	for _, nd := range st.Nodes {
		if nd.Alive {
			alive++
		}
	}
	return alive == members
}

// parseMetrics reads the Prometheus text exposition into sample name ->
// value. Comment lines are skipped; labelled samples keep their labels in
// the name ("sgxd_job_elapsed_ms_bucket{le=\"7\"}").
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// metricDelta returns after-before for every sample in after (samples
// absent before count from zero).
func metricDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// procCPU returns utime+stime of pid in seconds (/proc/<pid>/stat fields
// 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

const clockTicks = 100

// procHWM returns the peak resident set (VmHWM) of pid in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostSteal returns the host's cumulative steal time in seconds, summed
// over all CPUs.
func hostSteal() float64 { return cpuSteal("cpu") }

// cpuSteal returns the cumulative steal time in seconds of one line of
// /proc/stat: "cpu" for all CPUs, "cpu<N>" for CPU N. Steal is the eighth
// value of the line, in clock ticks; it is 0 when the line is missing.
func cpuSteal(label string) float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) >= 9 && f[0] == label {
			v, _ := strconv.ParseFloat(f[8], 64)
			return v / clockTicks
		}
	}
	return 0
}

// selfCPU returns the calling process's user+sys CPU in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// postJSON sends v and decodes the JSON answer into out, returning the
// status code and response headers.
func postJSON(ctx context.Context, c *http.Client, url string, v, out any) (int, http.Header, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, resp.Header, err
		}
	}
	return resp.StatusCode, resp.Header, nil
}
