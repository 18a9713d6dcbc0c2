// Command caem-serve is the always-on campaign service: an HTTP API
// over a persistent, append-only results store and a fault-tolerant
// cluster of simulation workers.
//
// Usage:
//
//	caem-serve -addr :8080 -store ./caem-store -workers 0
//	caem-serve -addr :8081 -store ./caem-store -standby http://primary:8080
//	caem-serve -join http://primary:8080,http://standby:8081 -workers 0
//
// The first form runs a coordinator: it owns the store, serves the
// campaign API, and executes cells on its local worker budget. The
// second runs a hot standby over the same store directory: it watches
// the coordinator's leader lock and takes over — restoring the failure
// history from the coordinator journal, re-planning every stored
// campaign, fencing the dead leader's epoch — the moment the lock
// expires. The third form runs a worker process that joins the
// cluster over HTTP (list every coordinator, comma-separated, so the
// worker can re-target across a failover): it claims leases of campaign
// cells, executes them on its own simulation pools, and pushes the
// results back. Workers hold no state — they can be added, removed, or
// killed at any point; the coordinator's lease/heartbeat protocol
// re-queues whatever a dead worker was holding, and determinism makes
// the recomputed results bit-identical. Every claim names the worker's
// simulation model version and GOARCH; a coordinator running another
// pair refuses it (409 model_mismatch), and the worker process logs the
// refusal once and exits with status 1.
//
// API (every route lives under /v1; see routes.go for the full table
// and testdata/api_routes.golden for the locked surface):
//
//	POST /v1/campaigns                submit a campaign (idempotent: equal
//	                                  requests map to the same campaign id)
//	GET  /v1/campaigns                list campaigns (cursor pagination:
//	                                  page_size, page_token)
//	GET  /v1/campaigns/{id}           status: per-cell states + counters
//	GET  /v1/campaigns/{id}/results   completed cells + mean±CI aggregates,
//	                                  served from the campaign's in-memory
//	                                  results view (works mid-run and
//	                                  after restarts); filterable
//	                                  (scenario, protocol, metric, min,
//	                                  max), orderable (top), percentile
//	                                  surfaces (percentiles), paginated
//	                                  (page_size, page_token)
//	GET  /v1/campaigns/{id}/progress  NDJSON progress stream (curl -N)
//	GET  /v1/healthz                  liveness + store stats + build version
//	GET  /v1/metrics                  Prometheus text-format exposition
//	GET  /v1/cluster/status           work queue, leases, workers, poisons
//	GET  /v1/cluster/leader           current leader URL, epoch, role
//	POST /v1/leases/...               the worker lease protocol (see
//	                                  internal/cluster)
//	GET  /debug/pprof/                runtime profiling (unversioned by Go
//	                                  convention)
//
// Each route is mounted once, at /v1: an unversioned API path answers
// 404 like any other unknown path (503 on a standby, like every route
// it does not serve). Every non-2xx response bodies the uniform
// envelope {"error":{"code","message","details"}} with a stable
// machine-readable code.
//
// Worker mode serves /metrics, /healthz, and /debug/pprof/ on its own
// observability listener (-obs-addr, loopback by default), so every
// process of a cluster is scrapeable. That listener is not the API and
// keeps its unversioned paths.
//
// A campaign request names library scenarios (or embeds inline specs),
// protocols, seeds, and partial config overrides:
//
//	curl -s localhost:8080/v1/campaigns -d '{
//	  "scenarios": ["node-churn"],
//	  "protocols": ["leach", "scheme1"],
//	  "seeds": [1, 2, 3],
//	  "config": {"durationSeconds": 300}
//	}'
//
// Every completed (scenario, protocol, seed) cell is persisted as it
// finishes, keyed by a content hash of its full configuration. The
// service survives restarts: campaign specs live in the store, so a
// restarted caem-serve re-registers every campaign, restores the cells
// already on disk, and re-runs only what is missing. Results are
// deterministic — a cell computed before a crash, after a crash, or on
// any worker of the cluster is bit-identical — so failures and recovery
// change nothing about the answers.
//
// Diagnostics are structured log/slog records on stderr (text by
// default, -log-format json for machine ingestion, -v for debug
// detail); worker and coordinator records carry worker_id, lease_id,
// and campaign attributes.
//
// On SIGTERM/SIGINT both modes drain gracefully: in-flight cells
// finish (bounded by -drain), worker mode releases its leases back to
// the coordinator, and the store is closed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
)

// version is the build version, stamped at link time via
//
//	go build -ldflags "-X main.version=v1.2.3"
//
// and surfaced in -version, /healthz, and the caem_build_info metric.
var version = "dev"

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (coordinator mode)")
		storeDir    = flag.String("store", "caem-store", "results-store directory (created if absent)")
		workers     = flag.Int("workers", 0, "simulation worker budget (0 = one per CPU)")
		join        = flag.String("join", "", "coordinator URL(s), comma-separated: run as a worker of that cluster instead of serving")
		standby     = flag.String("standby", "", "primary coordinator URL: run as a hot standby over the same store, taking over when its leader lock expires")
		advertise   = flag.String("advertise", "", "base URL workers should use to reach this coordinator (default http://<bound addr>)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight cells")
		leaseTTL    = flag.Duration("lease-ttl", 0, "worker lease TTL before cells re-queue (0 = default 15s)")
		lockTTL     = flag.Duration("lock-ttl", 3*time.Second, "leader-lock TTL before a standby may take over")
		obsAddr     = flag.String("obs-addr", "127.0.0.1:0", "worker-mode observability listen address for /metrics and /debug/pprof (empty disables)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		verbose     = flag.Bool("v", false, "enable debug logging")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Printf("caem-serve %s %s\n", version, runtime.Version())
		os.Exit(0)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caem-serve: %v\n", err)
		os.Exit(2)
	}

	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if *join != "" {
		os.Exit(workerMain(workerConfig{
			join:    *join,
			workers: w,
			drain:   *drain,
			obsAddr: *obsAddr,
			log:     logger,
		}))
	}
	os.Exit(serveMode(serveOptions{
		addr:      *addr,
		storeDir:  *storeDir,
		workers:   w,
		drain:     *drain,
		leaseTTL:  *leaseTTL,
		lockTTL:   *lockTTL,
		advertise: *advertise,
		standby:   *standby != "",
		primary:   *standby,
		log:       logger,
	}))
}

// serveOptions parameterizes a coordinator-mode (or standby-mode)
// process.
type serveOptions struct {
	// addr is the listen address.
	addr string
	// storeDir is the results-store directory; the leader lock and the
	// coordinator journal live in its cluster/ subdirectory, so a primary
	// and its standbys must share it.
	storeDir string
	// workers is the local executor-loop budget.
	workers int
	// drain is the graceful-shutdown deadline.
	drain time.Duration
	// leaseTTL is the worker lease TTL (0 = coordinator default).
	leaseTTL time.Duration
	// maxBatch caps cells per lease (0 = coordinator default).
	maxBatch int
	// lockTTL is the leader-lock TTL (0 = lock default).
	lockTTL time.Duration
	// advertise is the URL published to workers via /v1/cluster/leader
	// ("" derives http://<bound addr>).
	advertise string
	// standby starts the process watching the leader lock instead of
	// claiming it; primary is the current leader's URL hint served to
	// workers until the lock file says otherwise.
	standby bool
	primary string
	// log receives structured records (nil discards).
	log *slog.Logger
	// addrReady, when non-nil, is called with the bound listen address
	// once the listener is up (tests use it to find the port).
	addrReady func(addr string)
}

// serveMode runs a coordinator: leader election, journal replay, store,
// campaign API, local workers. A primary claims the leader lock
// immediately and refuses to start if another coordinator holds it; a
// standby (-standby) serves only health/metrics/leader-lookup until the
// lock expires, then takes over at a higher epoch — replaying the
// journal the dead leader wrote and re-planning the stored campaigns —
// and fences everything the old epoch granted.
func serveMode(opts serveOptions) int {
	logger := opts.log
	if logger == nil {
		logger = obs.NopLogger()
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		logger.Error("listen failed", "addr", opts.addr, "error", err.Error())
		return 1
	}
	bound := ln.Addr().String()
	advertise := strings.TrimRight(opts.advertise, "/")
	if advertise == "" {
		advertise = "http://" + bound
	}

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, version)
	takeovers := cluster.TakeoverCounter(reg)

	clusterDir := filepath.Join(opts.storeDir, "cluster")
	if err := os.MkdirAll(clusterDir, 0o755); err != nil {
		logger.Error("creating cluster dir failed", "error", err.Error())
		return 1
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "caem-serve"
	}
	lock := &cluster.LeaderLock{
		Path:   filepath.Join(clusterDir, "leader.lock"),
		TTL:    opts.lockTTL,
		Holder: fmt.Sprintf("%s-%d", host, os.Getpid()),
		URL:    advertise,
	}

	// The handler starts as the standby surface (health, metrics, leader
	// lookup, 503 for everything else) and is swapped for the full
	// campaign server once this process holds the lock. Atomic, so the
	// listener can come up before leadership is settled.
	var handler atomic.Pointer[http.Handler]
	var sb http.Handler = standbyMux(reg, lock.Path, opts.primary)
	handler.Store(&sb)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	if opts.addrReady != nil {
		opts.addrReady(bound)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var epoch int64
	if opts.standby {
		logger.Info("standing by", "addr", bound, "primary", opts.primary,
			"lock", lock.Path, "version", version)
		poll := opts.lockTTL / 3
		if poll <= 0 {
			poll = time.Second
		}
		if poll < 50*time.Millisecond {
			poll = 50 * time.Millisecond
		}
		t := time.NewTicker(poll)
		defer t.Stop()
	standbyWait:
		for {
			select {
			case err := <-done:
				logger.Error("http server failed", "error", err.Error())
				return 1
			case <-sig:
				logger.Info("standby interrupted before taking over")
				httpSrv.Close()
				return 0
			case <-t.C:
			}
			epoch, err = lock.TryAcquire()
			if errors.Is(err, cluster.ErrLockHeld) {
				continue
			}
			if err != nil {
				logger.Error("leader lock acquisition failed", "error", err.Error())
				return 1
			}
			takeovers.Inc()
			logger.Warn("leader lock expired; taking over", "epoch", epoch)
			break standbyWait
		}
	} else {
		epoch, err = lock.TryAcquire()
		if errors.Is(err, cluster.ErrLockHeld) {
			info, _ := cluster.ReadLockFile(lock.Path)
			logger.Error("another coordinator holds the leader lock; start this one with -standby",
				"holder", info.Holder, "url", info.URL, "epoch", info.Epoch)
			return 1
		}
		if err != nil {
			logger.Error("leader lock acquisition failed", "error", err.Error())
			return 1
		}
	}

	// Leadership held at epoch. Open the store, replay the predecessor's
	// journal (attempt counts and poisons), and start journaling our own
	// epoch before any scheduling; the server then re-plans every stored
	// campaign spec against the store. The two phases are timed for the
	// leading log line: open_ms is OpenStore, recover_ms the journal
	// replay through the end of recovery.
	openStart := time.Now()
	st, err := caem.OpenStore(opts.storeDir)
	openMS := msSince(openStart)
	if err != nil {
		logger.Error("opening store failed", "error", err.Error())
		return 1
	}
	if n := st.RecoveredBytes(); n > 0 {
		logger.Warn("store recovered from a torn tail", "dropped_bytes", n)
	}
	recoverStart := time.Now()
	jnl, jstate, err := journal.Open(clusterDir)
	if err != nil {
		logger.Error("opening coordinator journal failed", "error", err.Error())
		return 1
	}
	jnl.Observe(reg)
	if n := jnl.ReplayedRecords(); n > 0 {
		logger.Info("coordinator journal replayed",
			"records", n, "epoch", jstate.Epoch,
			"attempts", len(jstate.Attempts), "poisoned", len(jstate.Poisoned))
	}
	if n := jnl.RecoveredBytes(); n > 0 {
		logger.Warn("journal recovered from a torn tail", "dropped_bytes", n)
	}
	if err := jnl.Begin(epoch, jstate); err != nil {
		logger.Error("starting journal epoch failed", "error", err.Error())
		return 1
	}
	srv, err := newServerWith(st, serverConfig{
		workers: opts.workers,
		lease: cluster.Options{
			LeaseTTL: opts.leaseTTL,
			MaxBatch: opts.maxBatch,
			Epoch:    epoch,
			Journal:  jnl,
			Guard:    func() error { return lock.Verify(epoch) },
		},
		metrics:   reg,
		logger:    logger,
		version:   version,
		jstate:    &jstate,
		advertise: advertise,
	})
	if err != nil {
		logger.Error("starting server failed", "error", err.Error())
		return 1
	}
	recoverMS := msSince(recoverStart)
	var full http.Handler = srv
	handler.Store(&full)
	logger.Info("caem-serve leading",
		"addr", bound, "store", st.Dir(), "workers", opts.workers,
		"epoch", epoch, "cells_on_disk", st.Len(), "version", version,
		"open_ms", openMS, "recover_ms", recoverMS)

	// Renew the lock at TTL/3. Only a definitive deposition (ErrLockLost:
	// another holder or epoch owns the lock) fences immediately; a
	// transient renewal failure — claim contention, a slow filesystem —
	// retries at the next tick, because self-deposing on a hiccup while
	// the lock file still names us serves 410s with no successor to take
	// the work. If transient failures persist past the last successfully
	// written deadline, the lease we hold on disk has lapsed and a
	// standby may legitimately take over at any moment, so we fence then.
	renewStop := make(chan struct{})
	renewDone := make(chan struct{})
	lockTTL := opts.lockTTL
	if lockTTL <= 0 {
		lockTTL = 3 * time.Second
	}
	go func() {
		defer close(renewDone)
		period := lockTTL / 3
		if period <= 0 {
			period = time.Second
		}
		deadline := time.Now().Add(lockTTL)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-renewStop:
				return
			case <-t.C:
			}
			err := lock.Renew(epoch)
			switch {
			case err == nil:
				deadline = time.Now().Add(lockTTL)
			case errors.Is(err, cluster.ErrLockLost):
				logger.Error("leader lock lost; fencing", "epoch", epoch, "error", err.Error())
				srv.coord.Fence()
				return
			case time.Now().After(deadline):
				logger.Error("leader lock renewals failing past the lease deadline; fencing",
					"epoch", epoch, "error", err.Error())
				srv.coord.Fence()
				return
			default:
				logger.Warn("leader lock renewal failed; retrying",
					"epoch", epoch, "error", err.Error())
			}
		}
	}()

	code := 0
	select {
	case err := <-done:
		logger.Error("http server failed", "error", err.Error())
		code = 1
	case <-sig:
		logger.Info("draining", "deadline", opts.drain.String())
	}
	close(renewStop)
	<-renewDone
	httpSrv.Close()
	if err := srv.Shutdown(opts.drain); err != nil {
		logger.Error("shutdown incomplete", "error", err.Error())
		code = 1
	}
	lock.Release(epoch) // best-effort: a deposed leader has nothing to release
	if err := jnl.Close(); err != nil {
		logger.Error("closing journal failed", "error", err.Error())
		code = 1
	}
	if err := st.Close(); err != nil {
		logger.Error("closing store failed", "error", err.Error())
		code = 1
	}
	return code
}

// msSince is the time elapsed since t in milliseconds, to the
// microsecond.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}

// standbyMux is the HTTP surface of a coordinator that is not (yet)
// leading: health that says so, metrics, and the leader lookup workers
// use to re-target. Everything else answers 503 + Retry-After — never
// 410, which would make workers abandon leases that are still live
// under the real leader.
func standbyMux(reg *obs.Registry, lockPath, primaryHint string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/metrics", reg.Handler())
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		v := version
		if v == "" {
			v = "dev"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "role": "standby", "ready": false, "version": v,
		})
	})
	mux.HandleFunc("GET /v1/cluster/leader", func(w http.ResponseWriter, _ *http.Request) {
		out := cluster.LeaderInfo{LeaderURL: primaryHint, Role: "standby"}
		if info, err := cluster.ReadLockFile(lockPath); err == nil {
			out.LeaderURL, out.Epoch = info.URL, info.Epoch
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
			"standby: not leading yet", nil)
	})
	return mux
}

// workerConfig parameterizes a worker-mode process.
type workerConfig struct {
	// join lists coordinator base URLs, comma-separated. Workers rotate
	// through them on transport errors and fencing, and re-resolve the
	// leader via /v1/cluster/leader, so a failover needs no restart.
	join string
	// workers is the number of executor loops.
	workers int
	// drain is the graceful-shutdown deadline.
	drain time.Duration
	// obsAddr is the observability listen address serving /metrics,
	// /healthz, and /debug/pprof for this worker process ("" disables).
	obsAddr string
	// log receives structured records (nil discards).
	log *slog.Logger
	// obsReady, when non-nil, is called with the bound observability
	// address once the listener is up (tests use it to find the port).
	obsReady func(addr string)
}

// workerMain joins an existing coordinator: n executor loops claim
// leases over HTTP until interrupted, then release them and exit. The
// process serves its own observability endpoints on cfg.obsAddr.
func workerMain(cfg workerConfig) int {
	logger := cfg.log
	if logger == nil {
		logger = obs.NopLogger()
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, version)

	var obsSrv *http.Server
	if cfg.obsAddr != "" {
		ln, err := net.Listen("tcp", cfg.obsAddr)
		if err != nil {
			logger.Error("observability listener failed", "addr", cfg.obsAddr, "error", err.Error())
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "{\"ok\":true,\"mode\":\"worker\",\"version\":%q}\n", version)
		})
		registerPprof(mux)
		obsSrv = &http.Server{Handler: mux}
		go obsSrv.Serve(ln)
		bound := ln.Addr().String()
		logger.Info("worker observability listening", "addr", bound)
		if cfg.obsReady != nil {
			cfg.obsReady(bound)
		}
	}

	var bases []string
	for _, b := range strings.Split(cfg.join, ",") {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		logger.Error("no coordinator URL in -join")
		return 1
	}
	remote := &cluster.Remote{Bases: bases}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	var wg sync.WaitGroup
	refused := make(chan error, cfg.workers) // one slot per loop: a refused loop never blocks
	for i := 0; i < cfg.workers; i++ {
		w := &cluster.Worker{
			Queue:   remote,
			Name:    fmt.Sprintf("%s-%d-%d", host, os.Getpid(), i),
			Metrics: reg,
			Logger:  logger,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); errors.Is(err, cluster.ErrModelMismatch) {
				refused <- err
			}
		}()
	}
	logger.Info("workers joined", "count", cfg.workers, "coordinator", cfg.join, "version", version)

	code := 0
	select {
	case <-ctx.Done():
		logger.Info("draining", "deadline", cfg.drain.String())
	case err := <-refused:
		// Every loop of this process runs the same model, so one refusal
		// answers for all of them.
		logger.Error("coordinator refused this worker; exiting", "error", err.Error())
		stop()
		code = 1
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(cfg.drain):
		logger.Warn("drain deadline passed; abandoning leases (they expire and re-queue)")
		code = 1
	}
	if obsSrv != nil {
		obsSrv.Close()
	}
	return code
}
