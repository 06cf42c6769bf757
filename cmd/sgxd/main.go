// Command sgxd is the experiment daemon: it accepts experiment jobs over an
// HTTP JSON API, runs them on a bounded queue layered over the bench
// engine, and serves results from a persistent content-addressed store.
// A figure fetched through sgxd is byte-identical to the same figure
// printed by sgxbench; once computed, it is replayed from disk across
// restarts without simulating a single cell.
//
// Usage:
//
//	sgxd [-addr 127.0.0.1:7483] [-store DIR] [-jobs 1] [-backlog 64] [-parallel 0]
//	     [-journal FILE] [-faults SPEC.json] [-max-attempts 3] [-deadline 0]
//	     [-cache-bytes N] [-tenant-rps R] [-tenant-burst B] [-tenant-inflight Q]
//	     [-node-id ID -peers LIST | -node-id ID -join URL] [-advertise URL]
//	     [-heartbeat 1s] [-dead-after 3]
//
// Cluster mode: -peers takes the boot membership ("n1=http://h:p,
// n2=http://h:p,..." or "@peers.json") and -node-id names this node in it.
// Every node gets the same list; submissions then route to each digest's
// owner, results replicate by verified peer-fetch, any node answers for
// any job ID, and a node missing heartbeats for -dead-after intervals has
// its journaled jobs re-enqueued on survivors exactly once. From there
// membership is dynamic: -join URL starts this node as a fleet of one and
// announces it to a running node (epoch-versioned views gossip on the
// heartbeats; results it now owns re-replicate to it), and `sgxctl
// cluster leave` drains and departs a node without restarting anything.
// See internal/cluster and "Running a cluster" in the README.
//
// API (see internal/serve):
//
//	POST   /api/v1/jobs                submit {"experiment": "fig1", ...}
//	GET    /api/v1/jobs                list jobs
//	GET    /api/v1/jobs/{id}           job status
//	DELETE /api/v1/jobs/{id}           cancel
//	GET    /api/v1/jobs/{id}/result    table text (?csv=NAME for CSV grids)
//	GET    /api/v1/jobs/{id}/progress  streamed progress lines
//	GET    /api/v1/jobs/{id}/profile   telemetry run profile (JSON)
//	GET    /api/v1/experiments         the experiment registry
//	GET    /api/v1/quarantine          parked poison jobs
//	POST   /api/v1/quarantine/{id}/requeue  release one as a fresh job
//	POST   /api/v1/gc                  sweep stale store entries
//	GET    /metrics                    Prometheus exposition
//	GET    /healthz                    liveness (process is up)
//	GET    /readyz                     readiness (journal replayed, store writable)
//
// In cluster mode internal/cluster mounts its own endpoints beside these:
//
//	GET    /api/v1/cluster/status      membership as this node sees it
//	POST   /api/v1/cluster/heartbeat   peer heartbeat (liveness, view gossip)
//	GET    /api/v1/cluster/results/{key}  verified result for a peer
//	POST   /api/v1/cluster/join        admit a joiner, or {"seed": url} to join
//	POST   /api/v1/cluster/leave       graceful departure
//	POST   /api/v1/cluster/replicate   re-replicated result from a peer
//	GET    /api/v1/cluster/quarantine  fleet-wide quarantine view
//
// A forwarded submission is an ordinary POST /api/v1/jobs marked with
// X-Sgxd-Forwarded. A single-node daemon answers /api/v1/cluster/ with 404.
//
// The journal (on by default, next to the store) makes accepted jobs
// durable: after a crash or SIGKILL, restart replays it — queued and
// interrupted jobs re-run to byte-identical results, quarantined jobs stay
// parked. -faults arms a deterministic fault-injection spec (see
// internal/faultline) for chaos testing the daemon under flaky I/O, poison
// cells, and crash points.
//
// SIGINT/SIGTERM begin a graceful shutdown: admission closes immediately
// (new submits get 503, /readyz flips in lockstep), queued jobs are
// cancelled, in-flight jobs drain (bounded by -drain-timeout), then the
// listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/cluster"
	"sgxbounds/internal/faultline"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/store"
	_ "sgxbounds/internal/stress" // registers the stress experiments
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7483", "listen address")
	storeDir := flag.String("store", defaultStoreDir(), "result store directory")
	jobs := flag.Int("jobs", 1, "concurrent jobs (each job parallelises internally)")
	backlog := flag.Int("backlog", 64, "queued-job capacity")
	parallel := flag.Int("parallel", 0, "default engine workers per job (0 = GOMAXPROCS)")
	drain := flag.Duration("drain-timeout", 10*time.Minute, "max time to drain in-flight jobs on shutdown")
	journal := flag.String("journal", "", "job journal path (default <store>/../journal.jsonl; \"off\" disables durability)")
	faults := flag.String("faults", "", "fault-injection spec file (JSON; see internal/faultline)")
	maxAttempts := flag.Int("max-attempts", 3, "attempts per job before quarantine")
	deadline := flag.Duration("deadline", 0, "default per-attempt job deadline (0 = unbounded)")
	epcBytes := flag.Uint64("epc-bytes", 0, "default EPC capacity for EPC-aware submissions (0 = scaled default)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "in-memory result cache budget in bytes (0 disables the LRU tier)")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant sustained submissions/sec (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant submission burst allowance (with -tenant-rps)")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant concurrent job quota (0 = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second, "pause advertised with 429 rejections")
	nodeID := flag.String("node-id", "", "this node's ID in the cluster membership (with -peers or -join)")
	peers := flag.String("peers", "", "cluster membership: \"id=url,id=url,...\" or \"@file\" (empty = single node)")
	join := flag.String("join", "", "join a running fleet via this seed node URL (requires -node-id; -peers optional)")
	advertise := flag.String("advertise", "", "base URL peers reach this node at (default http://<addr>; required with -join when -addr binds a wildcard)")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster heartbeat interval")
	deadAfter := flag.Int("dead-after", 3, "missed heartbeats before a peer is declared dead")
	flag.Parse()

	logger := log.New(os.Stderr, "sgxd: ", log.LstdFlags)
	st, err := store.Open(*storeDir)
	if err != nil {
		logger.Fatal(err)
	}
	// The journal lives next to the store root, not inside it: store GC
	// sweeps unknown files under its root.
	journalPath := *journal
	switch journalPath {
	case "":
		journalPath = filepath.Join(filepath.Dir(filepath.Clean(*storeDir)), "journal.jsonl")
	case "off":
		journalPath = ""
	}
	var inj *faultline.Injector
	if *faults != "" {
		if inj, err = faultline.Load(*faults); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("fault injection armed from %s", *faults)
	}
	var clusterCfg *serve.ClusterConfig
	switch {
	case *peers != "":
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			logger.Fatal(err)
		}
		if *nodeID == "" {
			logger.Fatal("sgxd: -peers requires -node-id")
		}
		clusterCfg = &serve.ClusterConfig{
			Self:      *nodeID,
			Nodes:     nodes,
			Heartbeat: *heartbeat,
			DeadAfter: *deadAfter,
		}
	case *join != "":
		// Joining a running fleet: start as a one-node membership (just
		// ourselves), then announce to the seed once we are listening; the
		// adopted view brings the rest of the fleet.
		if *nodeID == "" {
			logger.Fatal("sgxd: -join requires -node-id")
		}
		selfAddr := *advertise
		if selfAddr == "" {
			selfAddr = "http://" + *addr
		}
		self, err := cluster.ParsePeers(*nodeID + "=" + selfAddr)
		if err != nil {
			logger.Fatal(err)
		}
		clusterCfg = &serve.ClusterConfig{
			Self:      *nodeID,
			Nodes:     self,
			Heartbeat: *heartbeat,
			DeadAfter: *deadAfter,
		}
	case *nodeID != "":
		logger.Fatal("sgxd: -node-id requires -peers or -join")
	}
	srv, err := serve.New(serve.Config{
		Store:             st,
		Workers:           *jobs,
		Backlog:           *backlog,
		Parallel:          *parallel,
		Log:               logger,
		Journal:           journalPath,
		Faults:            inj,
		MaxAttempts:       *maxAttempts,
		DefaultDeadline:   *deadline,
		DefaultEPCBytes:   *epcBytes,
		CacheBytes:        *cacheBytes,
		TenantRPS:         *tenantRPS,
		TenantBurst:       *tenantBurst,
		TenantMaxInFlight: *tenantInflight,
		RetryAfter:        *retryAfter,
		Cluster:           clusterCfg,
	})
	if err != nil {
		logger.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	stats, _ := st.Stats()
	jdesc := journalPath
	if jdesc == "" {
		jdesc = "off"
	}
	logger.Printf("listening on %s (store %s: %d results, journal %s, sim %s)",
		*addr, *storeDir, stats.Entries, jdesc, bench.SimVersion)
	if clusterCfg != nil {
		logger.Printf("cluster: node %s in %d-node membership (heartbeat %s, dead after %d missed)",
			clusterCfg.Self, len(clusterCfg.Nodes), *heartbeat, *deadAfter)
	}
	if *join != "" {
		// Announce to the seed with retries: the fleet (or our own
		// listener) may need a moment, and a join-at-boot that ultimately
		// cannot reach the seed is a dead node waiting to be discovered.
		go func() {
			backoff := 100 * time.Millisecond
			for attempt := 1; ; attempt++ {
				err := srv.JoinCluster(*join)
				if err == nil {
					return
				}
				if attempt >= 10 {
					logger.Printf("cluster: join via %s failed after %d attempts: %v", *join, attempt, err)
					return
				}
				time.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Fatal(err)
	case sig := <-sigc:
		// Close admission before anything else: from this instant new
		// submits get 503 and /readyz reports not-ready, so load balancers
		// stop routing here while in-flight jobs finish.
		srv.BeginDrain()
		logger.Printf("%s: draining in-flight jobs", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("bye")
}

// defaultStoreDir places the store next to the user's cache, falling back
// to the working directory when no cache dir is resolvable.
func defaultStoreDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "sgxd", "store")
	}
	return "sgxd-store"
}
