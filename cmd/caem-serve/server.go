package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
	"repro/internal/store"
)

// campaignRequest is the POST /campaigns body: which scenarios to run
// (library names and/or inline specs), over which protocols and seeds,
// with optional partial-Config overrides applied on top of each
// scenario's embedded config. The canonical (re-marshalled) request is
// also the campaign's identity: equal requests map to the same campaign
// id, making submission idempotent.
type campaignRequest struct {
	// Scenarios names curated library scenarios.
	Scenarios []string `json:"scenarios,omitempty"`
	// Specs carries inline scenario specs (the scenarios/SPEC.md schema).
	Specs []json.RawMessage `json:"specs,omitempty"`
	// Generate expands preset generator families, each entry spelled
	// "family:count[:seed]" (seed defaults to 1). Generation is
	// deterministic, so the spelling stands in for the expanded specs in
	// the canonical request: recovery after a restart regenerates
	// byte-identical scenarios and the same cell hashes.
	Generate []string `json:"generate,omitempty"`
	// Protocols lists protocol names (ParseProtocol spellings); empty
	// means all three.
	Protocols []string `json:"protocols,omitempty"`
	// Seeds lists replicate seeds; empty means {1}.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Config is a partial caem.Config JSON object applied over each
	// scenario's resolved configuration.
	Config json.RawMessage `json:"config,omitempty"`
}

// cellRef identifies one campaign cell and its live status: the wire
// form of a grid cell, rendered from its index (campaign.refLocked).
type cellRef struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Seed     uint64 `json:"seed"`
	Status   string `json:"status"` // pending | running | done | restored | failed
	Error    string `json:"error,omitempty"`
}

// cellStatus is a grid cell's live status, one byte per cell.
type cellStatus uint8

const (
	cellPending cellStatus = iota
	cellRunning
	cellDone
	cellRestored
	cellFailed
)

// statusNames are the cell statuses' wire spellings.
var statusNames = [...]string{"pending", "running", "done", "restored", "failed"}

func (st cellStatus) String() string { return statusNames[st] }

// terminal reports a settled status, which nothing downgrades.
func (st cellStatus) terminal() bool { return st >= cellDone }

// campaign is one scheduled grid. Static fields are set at launch; the
// mutable state is guarded by mu. A cell is its index in the grid,
// which plan expands scenario-major, then protocol, then seed, so
// everything else about it is derived from the index (axes).
type campaign struct {
	id        string
	req       campaignRequest
	scenarios []caem.Scenario
	configs   []caem.Config // resolved base config per scenario
	hashes    []string      // CellHash per scenario
	protocols []caem.Protocol
	seeds     []uint64

	mu sync.Mutex
	// status holds each grid cell's status; its length is the grid size.
	status []cellStatus
	// errs holds the poison error of each failed cell, by grid index
	// (nil until a cell fails).
	errs      map[int]string
	completed int // done + restored
	failed    int
	state     string // running | done | failed
	subs      []chan []byte
	// results is the campaign's results view: slot i holds grid cell i's
	// metric row as the store holds it, once the cell is done, or restored
	// and loaded. view rehydrates the rows through the store's own summary
	// projection (caem.SummaryCell). It stays nil until a cell settles or
	// the results are read, so recovering a campaign reads no stored cell.
	results []store.Summary
	// loaded reports that the restored cells' slots are filled; the
	// first results read fills them (loadRestored).
	loaded bool
}

// axes returns grid cell i's scenario index, protocol and seed. They
// are immutable after launch, so no lock is needed.
func (c *campaign) axes(i int) (si int, p caem.Protocol, seed uint64) {
	np, ns := len(c.protocols), len(c.seeds)
	return i / (np * ns), c.protocols[i/ns%np], c.seeds[i%ns]
}

// refLocked renders grid cell i with its live status. Caller holds
// c.mu.
func (c *campaign) refLocked(i int) cellRef {
	si, p, seed := c.axes(i)
	return cellRef{
		Scenario: c.scenarios[si].Name, Protocol: p.String(), Seed: seed,
		Status: c.status[i].String(), Error: c.errs[i],
	}
}

// progressEvent is one NDJSON line of GET /campaigns/{id}/progress.
type progressEvent struct {
	Campaign  string   `json:"campaign"`
	State     string   `json:"state"`
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	Failed    int      `json:"failed,omitempty"`
	Cell      *cellRef `json:"cell,omitempty"`
}

// snapshot returns the campaign's current status, every cell included,
// under its lock.
func (c *campaign) snapshot() campaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.countsLocked()
	st.Cells = make([]cellRef, len(c.status))
	for i := range st.Cells {
		st.Cells[i] = c.refLocked(i)
	}
	return st
}

// counts returns the campaign's status without its cells: a listing
// row, built from the counters alone.
func (c *campaign) counts() campaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.countsLocked()
}

// countsLocked is counts. Caller holds c.mu.
func (c *campaign) countsLocked() campaignStatus {
	return campaignStatus{
		ID: c.id, State: c.state,
		Total: len(c.status), Completed: c.completed, Failed: c.failed,
	}
}

type campaignStatus struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Total     int       `json:"total"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Cells     []cellRef `json:"cells,omitempty"`
}

// serverConfig tunes a server beyond the worker count: the cluster
// fault-tolerance envelope and the chaos harness. The zero value means
// production defaults, no local workers, no injected faults.
type serverConfig struct {
	// workers is the number of local executor loops (each owning a
	// resident SimPool). 0 means coordinator-only: every cell is executed
	// by workers that join over HTTP.
	workers int
	// lease configures the coordinator (zero value = defaults).
	lease cluster.Options
	// chaos, when non-nil, injects deterministic faults into both the
	// local workers and the store-persistence sink.
	chaos *cluster.Chaos
	// metrics receives every instrument the server registers (cluster,
	// store, HTTP). Nil gets a private per-server registry — two servers
	// in one process (the chaos differential test) never share series.
	metrics *obs.Registry
	// logger receives structured records from the server, coordinator,
	// and local workers. Nil discards.
	logger *slog.Logger
	// version is the build version exposed in /healthz and
	// caem_build_info ("" reads as "dev").
	version string
	// jstate, when non-nil, is the replayed coordinator journal of a
	// predecessor: the coordinator restores its attempt counts and
	// poisons before campaign recovery re-plans the stored specs.
	jstate *journal.State
	// advertise is the base URL workers use to reach this server,
	// published by GET /v1/cluster/leader ("" falls back to the request
	// host).
	advertise string
}

// server is the campaign service: an HTTP API over a persistent results
// store and a fault-tolerant work-distribution coordinator. Cells flow
// through lease/heartbeat scheduling (internal/cluster) whether they
// run on local worker loops or on worker processes joined over HTTP;
// the server is the coordinator's Sink, persisting every settled cell
// and folding it back into campaign progress. The store makes completed
// work durable, and restart recovery re-schedules whatever is missing.
type server struct {
	store     *caem.CampaignStore
	workers   int
	mux       *http.ServeMux
	coord     *cluster.Coordinator
	chaos     *cluster.Chaos
	reg       *obs.Registry
	log       *slog.Logger
	version   string
	advertise string
	quit      chan struct{}
	cancel    context.CancelFunc // stops the local workers
	wg        sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	closed    bool
}

// newServerWith starts the coordinator, recovers campaigns persisted in
// the store (completed ones become queryable, interrupted ones resume
// from their stored cells), and then starts the local workers.
func newServerWith(st *caem.CampaignStore, cfg serverConfig) (*server, error) {
	if cfg.metrics == nil {
		cfg.metrics = obs.NewRegistry()
	}
	if cfg.logger == nil {
		cfg.logger = obs.NopLogger()
	}
	s := &server{
		store:     st,
		workers:   cfg.workers,
		mux:       http.NewServeMux(),
		chaos:     cfg.chaos,
		reg:       cfg.metrics,
		log:       cfg.logger,
		version:   cfg.version,
		advertise: cfg.advertise,
		quit:      make(chan struct{}),
		campaigns: make(map[string]*campaign),
	}
	st.Observe(s.reg)
	obs.RegisterBuildInfo(s.reg, s.version)
	cfg.lease.Metrics = s.reg
	cfg.lease.Logger = s.log
	s.coord = cluster.NewCoordinator(s, cfg.lease)
	s.mountAPI()
	s.coord.RegisterHTTPObserved(s.mux, s.reg)
	registerPprof(s.mux)

	if cfg.jstate != nil {
		// Restore the predecessor's attempt counts and poisons before
		// recovery re-plans: a resubmitted failing cell keeps its poison
		// budget, and a poisoned one is reported failed, not re-run.
		if err := s.coord.Restore(*cfg.jstate, nil); err != nil {
			s.coord.Stop()
			return nil, err
		}
	}
	if err := s.recover(); err != nil {
		s.coord.Stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for w := 0; w < cfg.workers; w++ {
		wk := &cluster.Worker{
			Queue:   s.coord,
			Name:    fmt.Sprintf("local-%d", w),
			Poll:    50 * time.Millisecond,
			Chaos:   cfg.chaos,
			Metrics: s.reg,
			Logger:  s.log,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			wk.Run(ctx)
		}()
	}
	return s, nil
}

// handle mounts a route with per-route request and latency
// instrumentation, labeled by the mux pattern.
func (s *server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, obs.WrapHandler(s.reg, pattern, h))
}

// registerPprof mounts net/http/pprof under /debug/pprof/ on an
// explicit mux (the package's init only wires http.DefaultServeMux,
// which this server never serves).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops accepting campaigns, cancels the local workers, and
// waits up to drain (0 = indefinitely) for them to settle or release
// their leases. The coordinator then stops sweeping. Every settled cell
// is already durable in the store; unfinished cells stay in the store's
// debt and are re-scheduled by the next process via recover().
func (s *server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.coord.Drain() // claims now answer 503 + Retry-After instead of handing out work
	s.cancel()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	if drain > 0 {
		select {
		case <-drained:
		case <-time.After(drain):
			err = fmt.Errorf("drain deadline (%v) passed with cells still in flight", drain)
		}
	} else {
		<-drained
	}
	s.coord.Stop()
	return err
}

// ---- cluster.Sink: settlement callbacks from the coordinator ----

// campaignByID is the sink-side campaign lookup.
func (s *server) campaignByID(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// CellStarted marks the cell running. A duplicate hand-out after a
// lease expiry may arrive when the cell already settled; never downgrade
// a terminal status.
func (s *server) CellStarted(cell cluster.Cell) {
	c := s.campaignByID(cell.Campaign)
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.status[cell.Index] == cellPending {
		c.status[cell.Index] = cellRunning
	}
	c.mu.Unlock()
}

// CellDone persists one result: CellsDone with a single cell.
func (s *server) CellDone(cell cluster.Cell, res *caem.Result) error {
	return s.CellsDone([]cluster.Cell{cell}, []*caem.Result{res})[0]
}

// CellsDone persists a settled lease's results with one store write and
// folds each persisted cell into campaign progress. It reports one error
// per cell: a cell the FailStorePut chaos hook rejects, or every cell of
// a failed write, goes back to the coordinator, which re-queues it
// through the retry/backoff path — a transient store fault must not
// lose a cell.
func (s *server) CellsDone(cells []cluster.Cell, results []*caem.Result) []error {
	errs := make([]error, len(cells))
	puts := make([]caem.CellPut, 0, len(cells))
	for i, cell := range cells {
		if errs[i] = s.chaos.FailStorePutFor(cell); errs[i] != nil {
			continue
		}
		puts = append(puts, caem.CellPut{Campaign: cell.Campaign, Hash: cell.Hash, Cell: caem.CampaignCell{
			Scenario: cell.Scenario.Name,
			Protocol: cell.Config.Protocol,
			Seed:     cell.Config.Seed,
			Result:   *results[i],
		}})
	}
	if err := s.store.PutCells(puts); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return errs
	}
	next := 0 // puts skips the cells the chaos hook rejected
	for i, cell := range cells {
		if errs[i] == nil {
			s.cellDone(cell, puts[next].Summary())
			next++
		}
	}
	return errs
}

// cellDone folds one persisted cell into its campaign's progress and
// results view; row is its metric row as the store now holds it.
func (s *server) cellDone(cell cluster.Cell, row store.Summary) {
	c := s.campaignByID(cell.Campaign)
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.status[cell.Index].terminal() {
		c.mu.Unlock()
		return
	}
	c.status[cell.Index] = cellDone
	c.completed++
	c.fillLocked(cell.Index, row)
	s.finishLocked(c, cell.Index)
}

// fillLocked puts a settled cell's row into its results-view slot,
// allocating the view on first use. Caller holds c.mu.
func (c *campaign) fillLocked(idx int, row store.Summary) {
	if c.results == nil {
		c.results = make([]store.Summary, len(c.status))
	}
	c.results[idx] = row
}

// CellFailed marks a poisoned cell terminally failed: its retry budget
// is spent and the campaign completes without it.
func (s *server) CellFailed(cell cluster.Cell, attempts int, err error) {
	c := s.campaignByID(cell.Campaign)
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.status[cell.Index].terminal() {
		c.mu.Unlock()
		return
	}
	c.status[cell.Index] = cellFailed
	if c.errs == nil {
		c.errs = make(map[int]string)
	}
	c.errs[cell.Index] = fmt.Sprintf("poisoned after %d attempts: %v", attempts, err)
	c.failed++
	s.finishLocked(c, cell.Index)
}

// finishLocked updates campaign state after a cell settles and emits
// the progress event. Caller holds c.mu; it is released here.
func (s *server) finishLocked(c *campaign, idx int) {
	cell := c.refLocked(idx)
	final := c.completed+c.failed == len(c.status)
	if final {
		if c.failed > 0 {
			c.state = "failed"
		} else {
			c.state = "done"
		}
	}
	ev := progressEvent{
		Campaign: c.id, State: c.state,
		Total: len(c.status), Completed: c.completed, Failed: c.failed,
		Cell: &cell,
	}
	line, _ := json.Marshal(ev)
	line = append(line, '\n')
	// Publish under the lock: sends are non-blocking (buffered channel,
	// select-default), and serializing them against the final close is
	// what keeps concurrent workers from sending on a closed channel.
	for _, ch := range c.subs {
		select {
		case ch <- line:
		default: // slow consumer: drop the event, the final close still lands
		}
	}
	if final {
		for _, ch := range c.subs {
			close(ch)
		}
		c.subs = nil
	}
	c.mu.Unlock()
}

// plan resolves and fully validates a campaign request into an
// unregistered campaign: scenarios, protocols, per-scenario configs and
// content hashes, and the cell grid split against the store (cells
// already present are restored up front — the service always resumes).
// plan touches no server state, so a failed request leaves no trace.
// A grid past the caps is refused before any scenario is generated.
func (s *server) plan(id string, req campaignRequest) (*campaign, []cluster.Cell, error) {
	protocols, err := resolveProtocols(req.Protocols)
	if err != nil {
		return nil, nil, err
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	if err := checkGridSize(req, len(protocols), len(seeds)); err != nil {
		return nil, nil, err
	}
	scs, err := resolveScenarios(req)
	if err != nil {
		return nil, nil, err
	}

	c := &campaign{
		id: id, req: req, scenarios: scs,
		protocols: protocols, seeds: seeds, state: "running",
	}
	for _, sc := range scs {
		cfg, err := caem.ScenarioConfig(sc)
		if err != nil {
			return nil, nil, err
		}
		if len(req.Config) > 0 {
			dec := json.NewDecoder(bytes.NewReader(req.Config))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cfg); err != nil {
				return nil, nil, fmt.Errorf("config overrides: %w", err)
			}
		}
		cfg.Workers = 1 // the service's worker budget is the parallel unit
		cfg.TraceCSV = nil
		if err := cfg.Validate(); err != nil {
			return nil, nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		hash, err := caem.CellHash(cfg, sc)
		if err != nil {
			return nil, nil, err
		}
		c.configs = append(c.configs, cfg)
		c.hashes = append(c.hashes, hash)
	}

	// Expand the grid in campaign submission order (the order axes
	// inverts) and split it into restored and pending cells.
	c.status = make([]cellStatus, len(scs)*len(protocols)*len(seeds))
	var pending []cluster.Cell
	idx := 0
	for si, sc := range scs {
		for _, p := range protocols {
			for _, seed := range seeds {
				if s.store.HasCell(c.hashes[si], sc.Name, p, seed) {
					c.status[idx] = cellRestored
					c.completed++
				} else {
					cfg := c.configs[si]
					cfg.Protocol, cfg.Seed = p, seed
					pending = append(pending, cluster.Cell{
						Campaign: id, Index: idx, Hash: c.hashes[si],
						Scenario: sc, Config: cfg,
					})
				}
				idx++
			}
		}
	}
	if len(pending) == 0 {
		c.state = "done"
	}
	return c, pending, nil
}

// register claims the campaign id under the server lock. It returns the
// already-registered campaign when the id is taken — the idempotency
// path — so concurrent equal POSTs cannot both schedule the grid.
func (s *server) register(c *campaign) (*campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	if existing := s.campaigns[c.id]; existing != nil {
		return existing, nil
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	return nil, nil
}

// schedule submits the campaign's pending cells to the coordinator for
// lease-based distribution across local and joined workers.
func (s *server) schedule(pending []cluster.Cell) {
	if len(pending) > 0 {
		s.coord.Submit(pending)
	}
}

// launch plans, registers, and schedules a campaign (the recovery
// path; handleCreate persists the spec between planning and
// registering).
func (s *server) launch(id string, req campaignRequest) (*campaign, error) {
	c, pending, err := s.plan(id, req)
	if err != nil {
		return nil, err
	}
	if existing, err := s.register(c); err != nil {
		return nil, err
	} else if existing != nil {
		return existing, nil
	}
	s.schedule(pending)
	return c, nil
}

// recover reloads every persisted campaign spec and relaunches it —
// completed campaigns restore entirely from the store, interrupted ones
// re-run only their missing cells. It is how every start and takeover
// resumes work: each spec is re-planned under the current model, so a
// cell is restored only from a result stored under its current
// CellHash. A spec that no longer resolves (for example a library
// scenario renamed across versions) is skipped with a warning rather
// than wedging the whole service on startup.
func (s *server) recover() error {
	ids, err := s.store.CampaignIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		blob, err := s.store.LoadCampaignSpec(id)
		if err != nil {
			return err
		}
		var req campaignRequest
		if err := json.Unmarshal(blob, &req); err != nil {
			s.log.Warn("skipping unrecoverable campaign", "campaign", id, "error", err.Error())
			continue
		}
		if _, err := s.launch(id, req); err != nil {
			s.log.Warn("skipping unrecoverable campaign", "campaign", id, "error", err.Error())
			continue
		}
		s.log.Info("campaign recovered", "campaign", id)
	}
	return nil
}

// campaignID derives the canonical idempotent id of a request.
func campaignID(req campaignRequest) (string, []byte, error) {
	canonical, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])[:12], canonical, nil
}

func resolveScenarios(req campaignRequest) ([]caem.Scenario, error) {
	var scs []caem.Scenario
	for _, name := range req.Scenarios {
		sc, err := caem.FindScenario(name)
		if err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	for i, raw := range req.Specs {
		sc, err := caem.LoadScenario(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("specs[%d]: %w", i, err)
		}
		scs = append(scs, sc)
	}
	for i, g := range req.Generate {
		gen, err := caem.ParseGenerate(g)
		if err != nil {
			return nil, fmt.Errorf("generate[%d]: %w", i, err)
		}
		scs = append(scs, gen...)
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("campaign needs at least one scenario (scenarios, specs, or generate)")
	}
	return scs, nil
}

func resolveProtocols(names []string) ([]caem.Protocol, error) {
	if len(names) == 0 {
		return caem.Protocols(), nil
	}
	out := make([]caem.Protocol, 0, len(names))
	for _, n := range names {
		p, err := caem.ParseProtocol(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the uniform /v1 error envelope
// {"error":{"code","message","details"}} with a stable machine-readable
// code (api.Code*).
func writeError(w http.ResponseWriter, status int, code string, err error) {
	api.WriteError(w, status, code, err.Error(), nil)
}

// writeInvalid rejects a request with invalid_request and the
// offending parameter in details.
func writeInvalid(w http.ResponseWriter, err error, param, value string) {
	api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest, err.Error(),
		map[string]string{param: value})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.campaigns)
	s.mu.Unlock()
	v := s.version
	if v == "" {
		v = "dev"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"role":      "leader",
		"ready":     true,
		"epoch":     s.coord.Epoch(),
		"version":   v,
		"workers":   s.workers,
		"campaigns": n,
		"cells":     s.store.Len(),
		"store":     s.store.Dir(),
	})
}

// handleLeader answers the worker re-targeting probe: who is leading,
// at which epoch. A standby answers the same route from its lock-file
// view; here the server itself is the leader.
func (s *server) handleLeader(w http.ResponseWriter, r *http.Request) {
	url := s.advertise
	if url == "" {
		url = "http://" + r.Host
	}
	writeJSON(w, http.StatusOK, cluster.LeaderInfo{
		LeaderURL: url,
		Epoch:     s.coord.Epoch(),
		Role:      "leader",
	})
}

// maxCampaignBody caps a POST /v1/campaigns body. The largest the tests
// and the benchmark send is under 9 KB (the benchmark fixture's
// campaigns, 700 seeds each); 1 MiB leaves over 100× headroom. A body
// past it answers 413 invalid_request.
const maxCampaignBody = 1 << 20

// maxCampaignCells is the largest grid one campaign may name; its
// scenarios are capped at caem.MaxCampaignScenarios. The largest
// campaigns the tests and the benchmark submit are the benchmark
// fixture's 2,100 cells and dense-world's 6 generated scenarios.
// Planning holds about 450 B per cell, so an accepted request plans in
// at most about 30 MB of cells plus the scenarios' 22 MB.
const maxCampaignCells = 1 << 16

// checkGridSize rejects a grid past the caps. It counts the scenarios
// as spelled, a generate entry by its count, so nothing is generated,
// planned or allocated for a refused grid.
func checkGridSize(req campaignRequest, protocols, seeds int) error {
	scenarios := len(req.Scenarios) + len(req.Specs)
	for i, g := range req.Generate {
		_, count, _, err := caem.SplitGenerate(g)
		if err != nil {
			return fmt.Errorf("generate[%d]: %w", i, err)
		}
		if count < 1 {
			return fmt.Errorf("generate[%d]: count %d < 1", i, count)
		}
		if count > caem.MaxCampaignScenarios {
			return fmt.Errorf("generate[%d] names %d scenarios, more than the cap of %d per campaign", i, count, caem.MaxCampaignScenarios)
		}
		scenarios += count
	}
	if scenarios > caem.MaxCampaignScenarios {
		return fmt.Errorf("campaign names %d scenarios, more than the cap of %d", scenarios, caem.MaxCampaignScenarios)
	}
	if cells := scenarios * protocols * seeds; cells > maxCampaignCells {
		return fmt.Errorf("campaign expands to %d cells (%d scenarios × %d protocols × %d seeds), more than the cap of %d",
			cells, scenarios, protocols, seeds, maxCampaignCells)
	}
	return nil
}

func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCampaignBody))
	dec.DisallowUnknownFields()
	var req campaignRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, api.BodyStatus(err), api.CodeInvalidRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	id, canonical, err := campaignID(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
		return
	}

	// Plan first (pure validation: an invalid request must leave no
	// trace, or its persisted spec would wedge every future recovery),
	// then persist the spec, then atomically claim the id — the
	// idempotency path for retried and concurrent equal POSTs. The spec
	// is the campaign's only durable record until its cells settle, so
	// it is written before the campaign exists: a failed write leaves
	// nothing registered, and a retried POST starts afresh.
	c, pending, err := s.plan(id, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
		return
	}
	if err := s.store.SaveCampaignSpec(id, canonical); err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	existing, err := s.register(c)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, err)
		return
	}
	if existing != nil { // idempotent re-POST
		writeJSON(w, http.StatusOK, existing.snapshot())
		return
	}
	// The 202 is the plan, snapshotted before any cell can run: its
	// completed count is exactly the cells restored from the store. A
	// worker settling a lease between scheduling and the snapshot would
	// otherwise make run cells indistinguishable from restored ones.
	accepted := c.snapshot()
	s.schedule(pending)
	s.log.Info("campaign accepted",
		"campaign", id, "cells", len(c.status), "pending", len(pending))
	writeJSON(w, http.StatusAccepted, accepted)
}

// pageParams parses page_size and page_token, writing the 400 itself
// on failure. queryHash binds tokens to the rest of the query string —
// a token replayed under different filters is rejected.
func pageParams(w http.ResponseWriter, r *http.Request, queryHash string) (size int, cur api.Cursor, ok bool) {
	q := r.URL.Query()
	if v := q.Get("page_size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeInvalid(w, fmt.Errorf("page_size must be a non-negative integer"), "page_size", v)
			return 0, api.Cursor{}, false
		}
		size = n
	}
	if tok := q.Get("page_token"); tok != "" {
		c, err := api.DecodeCursor(tok, queryHash)
		if err != nil {
			writeInvalid(w, err, "page_token", tok)
			return 0, api.Cursor{}, false
		}
		cur = c
	}
	return size, cur, true
}

// pageBounds clips one page [start, end) out of total items. size 0
// means everything after the cursor.
func pageBounds(total, size int, cur api.Cursor) (start, end int) {
	start = min(cur.Off, total)
	end = total
	if size > 0 && start+size < total {
		end = start + size
	}
	return start, end
}

// setNextLink advertises the next page as a Link header: the request's
// own path and query with page_token replaced.
func setNextLink(w http.ResponseWriter, r *http.Request, token string) {
	u := *r.URL
	q := u.Query()
	q.Set("page_token", token)
	u.RawQuery = q.Encode()
	w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", u.RequestURI(), "next"))
}

// listResponse is the GET /v1/campaigns wire doc. NextPageToken is
// omitted on the last (or only) page, so an unpaginated listing is
// byte-identical to the pre-/v1 response.
type listResponse struct {
	Campaigns     []campaignStatus `json:"campaigns"`
	NextPageToken string           `json:"nextPageToken,omitempty"`
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	size, cur, ok := pageParams(w, r, "") // the listing has no filters to bind
	if !ok {
		return
	}
	s.mu.Lock()
	all := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		all = append(all, s.campaigns[id])
	}
	s.mu.Unlock()

	start, end := pageBounds(len(all), size, cur)
	out := listResponse{Campaigns: make([]campaignStatus, 0, end-start)}
	for _, c := range all[start:end] {
		out.Campaigns = append(out.Campaigns, c.counts())
	}
	if end < len(all) {
		out.NextPageToken = api.EncodeCursor(end, "")
		setNextLink(w, r, out.NextPageToken)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) campaignFor(w http.ResponseWriter, r *http.Request) *campaign {
	s.mu.Lock()
	c := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
	}
	return c
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c := s.campaignFor(w, r); c != nil {
		writeJSON(w, http.StatusOK, c.snapshot())
	}
}

// resultCell is the wire form of one completed cell: identity plus the
// stored summary metrics.
type resultCell struct {
	Scenario              string  `json:"scenario"`
	Protocol              string  `json:"protocol"`
	Seed                  uint64  `json:"seed"`
	DurationSeconds       float64 `json:"durationSeconds"`
	TotalConsumedJ        float64 `json:"totalConsumedJ"`
	DeliveryRate          float64 `json:"deliveryRate"`
	MeanDelayMs           float64 `json:"meanDelayMs"`
	P95DelayMs            float64 `json:"p95DelayMs"`
	EnergyPerPacketMilliJ float64 `json:"energyPerPacketMilliJ"`
	AliveAtEnd            int     `json:"aliveAtEnd"`
	Delivered             uint64  `json:"delivered"`
	Generated             uint64  `json:"generated"`
}

// resultAggregate pairs a (scenario, protocol) group with its
// mean ± CI aggregates.
type resultAggregate struct {
	Scenario              string         `json:"scenario"`
	Protocol              string         `json:"protocol"`
	Seeds                 int            `json:"seeds"`
	ConsumedJ             caem.Aggregate `json:"consumedJ"`
	DeliveryRate          caem.Aggregate `json:"deliveryRate"`
	MeanDelayMs           caem.Aggregate `json:"meanDelayMs"`
	P95DelayMs            caem.Aggregate `json:"p95DelayMs"`
	EnergyPerPacketMilliJ caem.Aggregate `json:"energyPerPacketMilliJ"`
	AliveAtEnd            caem.Aggregate `json:"aliveAtEnd"`
}

// view returns the campaign's settled cells in grid order, with its
// state, rehydrated from the results view under the campaign lock. The
// first call loads the rows of the cells restored from the store; after
// that a read touches memory only.
func (s *server) view(c *campaign) ([]caem.CampaignCell, string, error) {
	c.mu.Lock()
	loaded := c.loaded
	c.mu.Unlock()
	if !loaded {
		if err := s.loadRestored(c); err != nil {
			return nil, "", err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := make([]caem.CampaignCell, 0, c.completed)
	for i, st := range c.status {
		if st == cellDone || st == cellRestored {
			si, p, seed := c.axes(i)
			cells = append(cells, caem.SummaryCell(c.scenarios[si].Name, p, seed, c.results[i]))
		}
	}
	return cells, c.state, nil
}

// loadRestored reads the rows of the cells plan restored from the store
// into the results view. The reads run outside c.mu, so settlement
// never waits on them; a cell is restored only at plan time, so the set
// is fixed. Two first reads may race here: both read, and the first to
// finish fills the slots.
func (s *server) loadRestored(c *campaign) error {
	var idx []int
	c.mu.Lock()
	for i, st := range c.status {
		if st == cellRestored {
			idx = append(idx, i)
		}
	}
	c.mu.Unlock()
	rows := make([]store.Summary, len(idx))
	missing := 0
	for k, i := range idx {
		si, p, seed := c.axes(i)
		row, ok, err := s.store.LookupSummary(c.hashes[si], c.scenarios[si].Name, p, seed)
		if err != nil {
			return err
		}
		if !ok {
			missing++
		}
		rows[k] = row
	}
	if missing > 0 {
		return fmt.Errorf("campaign %s: %d of its %d restored cells are missing from the store",
			c.id, missing, len(idx))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.loaded {
		for k, i := range idx {
			c.fillLocked(i, rows[k])
		}
		c.loaded = true
	}
	return nil
}

func wireCells(cells []caem.CampaignCell) []resultCell {
	var out []resultCell
	for _, cell := range cells {
		res := cell.Result
		out = append(out, resultCell{
			Scenario: cell.Scenario, Protocol: cell.Protocol.String(), Seed: cell.Seed,
			DurationSeconds: res.DurationSeconds, TotalConsumedJ: res.TotalConsumedJ,
			DeliveryRate: res.DeliveryRate, MeanDelayMs: res.MeanDelayMs,
			P95DelayMs: res.P95DelayMs, EnergyPerPacketMilliJ: res.EnergyPerPacketMilliJ,
			AliveAtEnd: res.AliveAtEnd, Delivered: res.Delivered, Generated: res.Generated,
		})
	}
	return out
}

func wireAggregates(aggs []caem.CampaignAggregate) []resultAggregate {
	var out []resultAggregate
	for _, a := range aggs {
		out = append(out, resultAggregate{
			Scenario: a.Scenario, Protocol: a.Protocol.String(), Seeds: a.Seeds,
			ConsumedJ: a.ConsumedJ, DeliveryRate: a.DeliveryRate,
			MeanDelayMs: a.MeanDelayMs, P95DelayMs: a.P95DelayMs,
			EnergyPerPacketMilliJ: a.EnergyPerPacketMilliJ, AliveAtEnd: a.AliveAtEnd,
		})
	}
	return out
}

// resultsResponse is the GET /v1/campaigns/{id}/results wire doc. The
// extension fields are omitted when unused, so the default
// (unfiltered, unpaginated) document is byte-identical to the pre-/v1
// response.
type resultsResponse struct {
	ID         string               `json:"id"`
	State      string               `json:"state"`
	Total      int                  `json:"total"`
	Completed  int                  `json:"completed"`
	Cells      []resultCell         `json:"cells"`
	Aggregates []resultAggregate    `json:"aggregates"`
	Surfaces   []caem.MetricSurface `json:"surfaces,omitempty"`
	// NextPageToken resumes cell pagination; aggregates and surfaces
	// always cover the whole filtered set, not just this page.
	NextPageToken string `json:"nextPageToken,omitempty"`
}

// resultsQuery parses the filter parameters of a results request into
// a cell query plus requested percentiles, and derives the hash that
// page tokens bind to. Parse errors are written as invalid_request.
func resultsQuery(w http.ResponseWriter, r *http.Request) (q caem.CellQuery, ps []float64, qhash string, ok bool) {
	v := r.URL.Query()
	q = caem.CellQuery{
		Scenario: v.Get("scenario"),
		Protocol: v.Get("protocol"),
		Metric:   v.Get("metric"),
	}
	for _, bound := range []struct {
		name string
		dst  **float64
	}{{"min", &q.Min}, {"max", &q.Max}} {
		raw := v.Get(bound.name)
		if raw == "" {
			continue
		}
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeInvalid(w, fmt.Errorf("%s must be a number", bound.name), bound.name, raw)
			return q, nil, "", false
		}
		*bound.dst = &f
	}
	if raw := v.Get("top"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeInvalid(w, fmt.Errorf("top must be a non-negative integer"), "top", raw)
			return q, nil, "", false
		}
		q.Top = n
	}
	if raw := v.Get("percentiles"); raw != "" {
		if q.Metric == "" {
			writeInvalid(w, fmt.Errorf("percentiles needs a metric"), "percentiles", raw)
			return q, nil, "", false
		}
		for _, part := range strings.Split(raw, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				writeInvalid(w, fmt.Errorf("percentiles must be comma-separated numbers"), "percentiles", raw)
				return q, nil, "", false
			}
			ps = append(ps, f)
		}
	}
	qhash = api.QueryHash(q.Scenario, q.Protocol, q.Metric,
		v.Get("min"), v.Get("max"), v.Get("top"), v.Get("percentiles"))
	return q, ps, qhash, true
}

// handleResults serves the campaign's completed cells from its results
// view — mid-run (partial results), after completion, and after a
// process restart — filtered, ordered, and paginated by the query
// parameters.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.campaignFor(w, r)
	if c == nil {
		return
	}
	q, ps, qhash, ok := resultsQuery(w, r)
	if !ok {
		return
	}
	size, cur, ok := pageParams(w, r, qhash)
	if !ok {
		return
	}
	all, state, err := s.view(c)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}

	cells := all
	if q != (caem.CellQuery{}) {
		if cells, err = caem.FilterCells(all, q); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
			return
		}
	}
	out := resultsResponse{
		ID: c.id, State: state, Total: len(c.status), Completed: len(all),
		Aggregates: wireAggregates(caem.AggregateCampaign(cells)),
	}
	if len(ps) > 0 {
		if out.Surfaces, err = caem.PercentileSurface(cells, q.Metric, ps); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
			return
		}
	}
	start, end := pageBounds(len(cells), size, cur)
	out.Cells = wireCells(cells[start:end])
	if end < len(cells) {
		out.NextPageToken = api.EncodeCursor(end, qhash)
		setNextLink(w, r, out.NextPageToken)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleProgress streams campaign progress as NDJSON: one snapshot line
// immediately, then one line per settling cell until the campaign
// finishes (the stream then closes). `curl -N` renders it live.
func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	c := s.campaignFor(w, r)
	if c == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")

	c.mu.Lock()
	snap := progressEvent{
		Campaign: c.id, State: c.state,
		Total: len(c.status), Completed: c.completed, Failed: c.failed,
	}
	var ch chan []byte
	if c.state == "running" {
		ch = make(chan []byte, len(c.status)+1)
		c.subs = append(c.subs, ch)
	}
	c.mu.Unlock()

	enc, _ := json.Marshal(snap)
	w.Write(append(enc, '\n'))
	if flusher != nil {
		flusher.Flush()
	}
	if ch == nil {
		return // already settled: snapshot is the whole story
	}
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.quit:
			return
		}
	}
}
