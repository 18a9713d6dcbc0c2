package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/caem"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
)

// Options tunes the coordinator's fault-tolerance envelope. The zero
// value resolves to production-shaped defaults; tests and the chaos
// harness shrink the timings to force expiry paths quickly.
type Options struct {
	// LeaseTTL is how long a lease survives without a renewal before its
	// cells are presumed lost and re-queued. Default 15s.
	LeaseTTL time.Duration
	// SweepEvery is the expiry-check period. Default LeaseTTL/4.
	SweepEvery time.Duration
	// MaxAttempts bounds how many times a *failing* cell is retried
	// before it is poisoned. (Lease expiry re-queues are not attempts: a
	// dead worker says nothing about the cell.) Default 4.
	MaxAttempts int
	// BackoffBase is the first retry delay; attempt n waits
	// BackoffBase·2^(n-1) plus deterministic jitter. Default 250ms.
	BackoffBase time.Duration
	// MaxBatch caps the cells in one lease. Default 8.
	MaxBatch int
	// Epoch is the leadership epoch this coordinator was elected at.
	// Every lease ID embeds it, so a successor coordinator can fence
	// operations carrying a dead epoch. Default 1 (a standalone
	// coordinator with no election behaves exactly as before).
	Epoch int64
	// Journal, when non-nil, receives a durable record of every cell
	// failure (its attempt count) and every poison, the scheduling state
	// a successor coordinator cannot re-derive from the results store and
	// the stored campaign specs. Claims, renewals and settlements write
	// nothing to it. The caller must have called Journal.Begin for this
	// epoch.
	Journal *journal.Journal
	// Guard, when non-nil, is the resource-level fence check consulted
	// before the coordinator grants a lease or settles one — the paths
	// that lead to durable writes on shared state. It returns nil while
	// this process's leadership lease is verifiably live; ErrLockLost
	// fences the coordinator permanently. cmd/caem-serve wires it to
	// LeaderLock.Verify, so a leader that stalled past its lock TTL and
	// resumed is fenced synchronously at the write — not at its next
	// renew tick, by which time it could already have interleaved store
	// appends with its successor's.
	Guard func() error
	// Metrics receives the coordinator's instruments. Nil gets a private
	// registry, so instrumentation never needs nil checks; callers who
	// want a /metrics endpoint pass the registry they expose.
	Metrics *obs.Registry
	// Logger receives structured lease-lifecycle records. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = o.LeaseTTL / 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.Epoch <= 0 {
		o.Epoch = 1
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// lease is the coordinator's record of one outstanding batch.
type lease struct {
	id       string
	worker   string
	cells    []Cell
	deadline time.Time
	renews   int
}

// delayedCell is a failed cell waiting out its retry backoff.
type delayedCell struct {
	cell      Cell
	notBefore time.Time
}

// workerInfo is per-worker observability state. Settlement counts
// live in the registry (settledC is the worker's pre-bound handle on
// caem_worker_settled_total), not here — Status reads them back from
// the same instruments /metrics exposes.
type workerInfo struct {
	lastSeen time.Time
	settledC *obs.Counter
}

// PoisonReport records one terminally failed cell for /cluster/status.
type PoisonReport struct {
	Campaign string `json:"campaign"`
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Seed     uint64 `json:"seed"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// Coordinator owns the cluster's work queue and lease table. All
// methods are safe for concurrent use. The Sink's CellStarted and
// CellFailed run under the coordinator lock, serialized with expiry
// sweeps and settlement bookkeeping. The durable write of a settlement
// (CellsDone, or CellDone per cell) runs outside it, so a store fsync
// never holds up another worker's Claim or Renew; see settle.
type Coordinator struct {
	opts Options
	sink Sink
	now  func() time.Time // injectable clock (tests)
	met  *coordMetrics
	log  *slog.Logger

	// A cell has at most one home among queue, delayed, the leases,
	// settling and settled. Submit checks them all; every other path
	// moves a cell from one home to the next without looking elsewhere.
	mu       sync.Mutex
	queue    []Cell                 // ready to lease, FIFO
	delayed  []delayedCell          // backing off after a failure
	leases   map[string]*lease      // outstanding batches
	attempts map[string]int         // reported failures per cell key (Cell.Key)
	settled  map[cellID]bool        // terminally settled (done or poisoned)
	settling map[cellID]bool        // reserved by a settle whose store write is in flight
	workers  map[string]*workerInfo // per-worker stats
	poisoned []PoisonReport
	leaseSeq int
	draining bool // shutting down: Claim answers ErrDraining
	fenced   bool // deposed: every operation answers ErrFenced

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator starts a coordinator (including its expiry sweeper)
// delivering settlement callbacks to sink. Stop it with Stop.
func NewCoordinator(sink Sink, opts Options) *Coordinator {
	c := &Coordinator{
		opts:     opts.withDefaults(),
		sink:     sink,
		now:      time.Now,
		leases:   make(map[string]*lease),
		attempts: make(map[string]int),
		settled:  make(map[cellID]bool),
		settling: make(map[cellID]bool),
		workers:  make(map[string]*workerInfo),
		stop:     make(chan struct{}),
	}
	c.met = newCoordMetrics(c.opts.Metrics)
	c.met.epoch.Set(float64(c.opts.Epoch))
	c.log = c.opts.Logger
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// journal appends one record, if a journal is attached. A journal
// write failure is logged and survived: stalling the cluster on a full
// disk would cost more than the degraded failover fidelity.
func (c *Coordinator) journal(op string, fn func(j *journal.Journal) error) {
	if c.opts.Journal == nil {
		return
	}
	if err := fn(c.opts.Journal); err != nil {
		c.log.Error("journal append failed", "op", op, "error", err.Error())
	}
}

// leaseEpoch extracts the epoch embedded in a lease ID
// ("lease-<epoch>-<seq>").
func leaseEpoch(id string) (int64, bool) {
	parts := strings.Split(id, "-")
	if len(parts) != 3 || parts[0] != "lease" {
		return 0, false
	}
	e, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || e <= 0 {
		return 0, false
	}
	return e, true
}

// fenceCheckLocked rejects operations that must not mutate state: any
// at all once this coordinator is deposed, and any carrying a lease
// from a different epoch. Caller holds mu.
func (c *Coordinator) fenceCheckLocked(leaseID string) error {
	if c.fenced {
		c.met.fenced.Inc()
		return ErrFenced
	}
	if leaseID != "" {
		if e, ok := leaseEpoch(leaseID); ok && e != c.opts.Epoch {
			c.met.fenced.Inc()
			c.log.Warn("fenced dead-epoch lease operation",
				"lease_id", leaseID, "lease_epoch", e, "epoch", c.opts.Epoch)
			return ErrFenced
		}
	}
	return nil
}

// verifyLeadershipLocked runs the Options.Guard resource check before
// a mutation that leads to durable writes. ErrLockLost fences the
// coordinator permanently and answers ErrFenced; any other guard error
// (a transient fault reading the lock) rejects just this operation —
// refusing one settle is cheap, the lease expiry re-queues its cells,
// whereas writing to a store a successor may concurrently be appending
// to could corrupt it. Caller holds mu.
func (c *Coordinator) verifyLeadershipLocked() error {
	if c.opts.Guard == nil {
		return nil
	}
	err := c.opts.Guard()
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrLockLost) {
		c.fenced = true
		c.met.fenced.Inc()
		c.log.Error("coordinator fenced: leadership verification failed",
			"epoch", c.opts.Epoch, "error", err.Error())
		return ErrFenced
	}
	c.log.Warn("leadership verification inconclusive; rejecting the write",
		"epoch", c.opts.Epoch, "error", err.Error())
	return err
}

// Drain stops granting new leases: every subsequent Claim answers
// ErrDraining (503 + Retry-After over HTTP) so workers back off
// instead of tight-looping against a shutting-down coordinator.
// Outstanding leases still settle normally.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.log.Info("coordinator draining: claims now answer unavailable")
}

// Fence permanently rejects every operation with ErrFenced — called on
// a coordinator that lost the leader lock, so a zombie leader cannot
// accept or settle work its successor now owns.
func (c *Coordinator) Fence() {
	c.mu.Lock()
	already := c.fenced
	c.fenced = true
	c.mu.Unlock()
	if !already {
		c.log.Error("coordinator fenced: leadership lost", "epoch", c.opts.Epoch)
	}
}

// Epoch returns the leadership epoch this coordinator was created at.
func (c *Coordinator) Epoch() int64 { return c.opts.Epoch }

// Stop halts the expiry sweeper. Outstanding leases stay claimable to
// completion by in-flight workers; no new expiry reclaims happen.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		return
	default:
	}
	close(c.stop)
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Submit enqueues cells for distribution, deduplicating against
// everything the coordinator already tracks: queued, backing off,
// leased, settling and settled cells. A settled cell is never queued
// again. Callers submit only cells whose results are absent from the
// store, so a settled cell among them is a poisoned one, restored from
// the journal or poisoned by this coordinator. Its poison is re-reported
// to the Sink as terminally failed, so a re-planned campaign folds it in
// instead of waiting forever.
func (c *Coordinator) Submit(cells []Cell) {
	c.mu.Lock()
	if c.fenced {
		c.mu.Unlock()
		c.log.Warn("submit dropped: coordinator is fenced", "cells", len(cells))
		return
	}
	known := make(map[cellID]bool, len(c.queue)+len(c.delayed)+len(c.leases)+len(c.settling))
	for id := range c.settling {
		known[id] = true
	}
	for _, cell := range c.queue {
		known[cell.id()] = true
	}
	for _, d := range c.delayed {
		known[d.cell.id()] = true
	}
	for _, l := range c.leases {
		for _, cell := range l.cells {
			known[cell.id()] = true
		}
	}
	queued := 0
	var repoison []Cell
	for _, cell := range cells {
		id := cell.id()
		switch {
		case known[id]:
		case c.settled[id]:
			if c.poisonReportLocked(id) != nil {
				repoison = append(repoison, cell)
			}
		default:
			known[id] = true
			c.queue = append(c.queue, cell)
			queued++
		}
	}
	// Re-deliver poisons under mu, like CellFailed on the retry path.
	for _, cell := range repoison {
		rep := c.poisonReportLocked(cell.id())
		c.sink.CellFailed(cell, rep.Attempts, errors.New(rep.Error))
	}
	c.syncGaugesLocked()
	c.mu.Unlock()
	c.log.Debug("cells submitted",
		"cells", len(cells), "queued", queued, "repoisoned", len(repoison))
}

// poisonReportLocked finds the poison report for a cell. Caller holds
// mu; poisons are rare, so the scan is fine.
func (c *Coordinator) poisonReportLocked(id cellID) *PoisonReport {
	for i := range c.poisoned {
		if rep := &c.poisoned[i]; rep.Campaign == id.campaign && rep.Index == id.index {
			return rep
		}
	}
	return nil
}

// Restore rebuilds the coordinator's failure history from a replayed
// journal: absolute attempt counts and poison reports. A poisoned cell
// counts as settled, so resubmitting it re-reports the poison instead
// of queueing it. Call before submitting work; the caller then re-plans
// its stored campaigns and submits the cells the store lacks. adopt is
// unused: it remains for callers written when the journal recorded the
// queue.
func (c *Coordinator) Restore(st journal.State, adopt func(Cell) bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, n := range st.Attempts {
		if n > c.attempts[k] {
			c.attempts[k] = n
		}
	}
	for key, blob := range st.Poisoned {
		var rep PoisonReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			c.log.Warn("undecodable poison report in journal", "cell", key, "error", err.Error())
			continue
		}
		c.settled[cellID{rep.Campaign, rep.Index}] = true
		c.poisoned = append(c.poisoned, rep)
	}
	sort.Slice(c.poisoned, func(i, j int) bool {
		if c.poisoned[i].Campaign != c.poisoned[j].Campaign {
			return c.poisoned[i].Campaign < c.poisoned[j].Campaign
		}
		return c.poisoned[i].Index < c.poisoned[j].Index
	})
	c.log.Info("coordinator state restored from journal",
		"attempts", len(st.Attempts), "poisoned", len(c.poisoned))
	return nil
}

// testHookMutated, when set by this package's tests, runs under mu
// after every mutation (from syncGaugesLocked) to check the coordinator's
// bookkeeping.
var testHookMutated func(c *Coordinator)

// syncGaugesLocked republishes the structural depth gauges from the
// authoritative in-memory state. Called after every mutation under mu,
// so a /metrics scrape and a /cluster/status snapshot always agree.
func (c *Coordinator) syncGaugesLocked() {
	c.met.queueDepth.Set(float64(len(c.queue)))
	c.met.delayed.Set(float64(len(c.delayed)))
	c.met.inflight.Set(float64(len(c.leases)))
	if testHookMutated != nil {
		testHookMutated(c)
	}
}

// Claim hands the worker a lease of at most max cells, sized by guided
// self-scheduling: roughly remaining/(2·workers), large while the queue
// is deep and shrinking toward 1 as it drains, so a slow irregular cell
// near the end cannot strand a big batch behind one worker.
func (c *Coordinator) Claim(worker string, max int) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if err := c.fenceCheckLocked(""); err != nil {
		return nil, err
	}
	if c.draining {
		return nil, ErrDraining
	}
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{settledC: c.met.workerSettled.With(worker)}
		c.workers[worker] = w
		c.log.Info("worker joined", "worker_id", worker)
	}
	w.lastSeen = now
	c.promoteRipeLocked(now)
	if len(c.queue) == 0 {
		c.syncGaugesLocked()
		return nil, nil
	}
	// About to grant: verify leadership at the lock file first, so a
	// zombie leader stops handing out work it has no right to settle.
	if err := c.verifyLeadershipLocked(); err != nil {
		return nil, err
	}

	n := (len(c.queue) + 2*len(c.workers) - 1) / (2 * len(c.workers))
	if n < 1 {
		n = 1
	}
	if n > c.opts.MaxBatch {
		n = c.opts.MaxBatch
	}
	if max > 0 && n > max {
		n = max
	}
	cells := make([]Cell, n)
	copy(cells, c.queue[:n])
	// Clear the granted prefix, and drop the array once the queue is
	// empty, so the backing array of a drained campaign is not kept
	// reachable until the next Submit.
	clear(c.queue[:n])
	c.queue = c.queue[n:]
	if len(c.queue) == 0 {
		c.queue = nil
	}

	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("lease-%d-%d", c.opts.Epoch, c.leaseSeq),
		worker:   worker,
		cells:    cells,
		deadline: now.Add(c.opts.LeaseTTL),
	}
	c.leases[l.id] = l
	for _, cell := range cells {
		c.sink.CellStarted(cell)
	}
	c.met.claims.Inc()
	c.met.batchCells.Observe(float64(n))
	c.syncGaugesLocked()
	c.log.Debug("lease granted",
		"lease_id", l.id, "worker_id", worker, "cells", n, "queue", len(c.queue))
	return &Lease{
		ID: l.id, Worker: worker, Cells: cells,
		TTLMillis: c.opts.LeaseTTL.Milliseconds(), Epoch: c.opts.Epoch,
	}, nil
}

// promoteRipeLocked moves delayed cells whose backoff elapsed back onto
// the ready queue. Caller holds mu.
func (c *Coordinator) promoteRipeLocked(now time.Time) {
	kept := c.delayed[:0]
	for _, d := range c.delayed {
		if !d.notBefore.After(now) {
			c.queue = append(c.queue, d.cell)
		} else {
			kept = append(kept, d)
		}
	}
	c.delayed = kept
}

// Renew extends the lease's heartbeat deadline.
func (c *Coordinator) Renew(leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if err := c.fenceCheckLocked(leaseID); err != nil {
		return err
	}
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	l.deadline = now.Add(c.opts.LeaseTTL)
	l.renews++
	if w := c.workers[l.worker]; w != nil {
		w.lastSeen = now
	}
	c.met.renews.Inc()
	return nil
}

// Complete settles a lease with the worker's results. Against an
// already-expired lease it returns ErrLeaseGone and discards the
// results — the cells re-queued at expiry and will be recomputed
// bit-identically, so dropping a late completion is always safe.
func (c *Coordinator) Complete(leaseID string, results []CellResult) error {
	return c.settle(leaseID, results, false)
}

// Release returns a lease early — the graceful-shutdown path. Finished
// results settle normally; every other cell re-queues immediately with
// no retry penalty and no wait for expiry.
func (c *Coordinator) Release(leaseID string, results []CellResult) error {
	return c.settle(leaseID, results, true)
}

// settle runs in three steps so that the durable store write happens
// outside c.mu:
//
//   - reserve, under mu: the fence and Guard checks, the lease removed,
//     its results sorted into done, missing and failed, and the done
//     cells marked settling;
//   - write, outside mu: the sink persists every done cell, with one
//     CellsDone call when it is a BatchSink, else one CellDone each;
//   - publish, under mu again: the persisted cells settle, and a cell
//     whose write failed takes the retry path.
//
// While a cell is settling, Submit treats it as known, as if it had
// settled.
func (c *Coordinator) settle(leaseID string, results []CellResult, partial bool) error {
	c.mu.Lock()
	s, err := c.reserveLocked(leaseID, results, partial)
	c.mu.Unlock()
	if err != nil || len(s.cells) == 0 {
		return err
	}
	errs := c.persist(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.publishLocked(s, errs)
}

// settlement is a lease's done cells between settle's reserve and
// publish steps, with their results and the worker that computed them.
type settlement struct {
	worker  *workerInfo
	cells   []Cell
	results []*caem.Result
}

// reserveLocked is settle's first step. Caller holds mu.
func (c *Coordinator) reserveLocked(leaseID string, results []CellResult, partial bool) (settlement, error) {
	now := c.now()
	if err := c.fenceCheckLocked(leaseID); err != nil {
		return settlement{}, err
	}
	l, ok := c.leases[leaseID]
	if !ok {
		return settlement{}, ErrLeaseGone
	}
	// Settlement is where results reach the shared store. Verify
	// leadership at the lock file before any of it: a leader deposed
	// between renew ticks must not append to segments its successor is
	// also writing. Rejecting here leaves the lease in place — if we are
	// wrong to reject, expiry re-queues the cells.
	if err := c.verifyLeadershipLocked(); err != nil {
		return settlement{}, err
	}
	delete(c.leases, leaseID)
	s := settlement{worker: c.workers[l.worker]}
	if s.worker != nil {
		s.worker.lastSeen = now
	}
	if partial {
		c.met.released.Inc()
		c.log.Info("lease released",
			"lease_id", leaseID, "worker_id", l.worker, "results", len(results), "cells", len(l.cells))
	} else {
		c.met.completed.Inc()
		c.log.Debug("lease completed",
			"lease_id", leaseID, "worker_id", l.worker, "results", len(results))
	}

	byID := make(map[cellID]CellResult, len(results))
	for _, r := range results {
		byID[cellID{r.Campaign, r.Index}] = r
	}
	for _, cell := range l.cells {
		id := cell.id()
		r, have := byID[id]
		switch {
		case !have:
			// A Release returns its unfinished cells; a Complete that omits
			// a leased cell is a worker bug, but losing the cell would hang
			// its campaign forever. Either way: re-queue, no penalty.
			c.queue = append(c.queue, cell)
		case r.Result != nil:
			c.settling[id] = true
			s.cells = append(s.cells, cell)
			s.results = append(s.results, r.Result)
		default:
			c.retryLocked(cell, now, fmt.Errorf("%s", r.Error))
		}
	}
	c.syncGaugesLocked()
	return s, nil
}

// persist is settle's write step, run outside mu. It returns one error
// per reserved cell, nil where the result is now durable.
func (c *Coordinator) persist(s settlement) []error {
	if b, ok := c.sink.(BatchSink); ok {
		return b.CellsDone(s.cells, s.results)
	}
	errs := make([]error, len(s.cells))
	for i, cell := range s.cells {
		errs[i] = c.sink.CellDone(cell, s.results[i])
	}
	return errs
}

// publishLocked is settle's last step. A cell whose write failed (a
// transient store fault) goes through the retry path rather than being
// lost. A settled cell needs no journal record: the store write that
// just returned is the record, and a successor's re-plan finds it there.
// A coordinator fenced while the write ran publishes nothing (no retry
// or poison record, no CellFailed), since its successor may already be
// replaying the journal; the successor's re-plan restores the stored
// cells and re-queues the rest. Caller holds mu.
func (c *Coordinator) publishLocked(s settlement, errs []error) error {
	if c.fenced {
		for _, cell := range s.cells {
			delete(c.settling, cell.id())
		}
		return c.fenceCheckLocked("")
	}
	now := c.now()
	for i, cell := range s.cells {
		delete(c.settling, cell.id())
		if errs[i] != nil {
			c.retryLocked(cell, now, errs[i])
			continue
		}
		c.settled[cell.id()] = true
		c.met.cellsSettled.Inc()
		if s.worker != nil {
			s.worker.settledC.Inc()
		}
	}
	c.syncGaugesLocked()
	return nil
}

// retryLocked schedules a failed cell's next attempt — exponential
// backoff with deterministic jitter — or poisons it once the attempt
// budget is spent. Caller holds mu.
func (c *Coordinator) retryLocked(cell Cell, now time.Time, cause error) {
	key := cell.Key()
	c.attempts[key]++
	n := c.attempts[key]
	if n >= c.opts.MaxAttempts {
		c.settled[cell.id()] = true
		rep := PoisonReport{
			Campaign: cell.Campaign,
			Index:    cell.Index,
			Scenario: cell.Scenario.Name,
			Protocol: cell.Config.Protocol.String(),
			Seed:     cell.Config.Seed,
			Attempts: n,
			Error:    cause.Error(),
		}
		c.poisoned = append(c.poisoned, rep)
		c.journal("poison", func(j *journal.Journal) error {
			blob, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			return j.Poison(key, n, blob)
		})
		c.met.cellsPoisoned.Inc()
		c.log.Error("cell poisoned",
			"campaign", cell.Campaign, "cell", cell.Index, "attempts", n, "error", cause.Error())
		c.sink.CellFailed(cell, n, cause)
		return
	}
	c.journal("retry", func(j *journal.Journal) error { return j.Retry(key, n) })
	c.met.cellsRetried.Inc()
	c.log.Warn("cell retry scheduled",
		"campaign", cell.Campaign, "cell", cell.Index, "attempt", n, "error", cause.Error())
	shift := n - 1
	if shift > 6 {
		shift = 6 // cap the exponent: 64× base is patient enough
	}
	delay := c.opts.BackoffBase << shift
	delay += jitter(key, n, delay/2)
	c.delayed = append(c.delayed, delayedCell{cell: cell, notBefore: now.Add(delay)})
}

// jitter derives a deterministic pseudo-random delay in [0, span] from
// the cell key and attempt number, de-synchronizing retry herds without
// sacrificing reproducibility.
func jitter(key string, attempt int, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	return time.Duration(h.Sum64() % uint64(span+1))
}

// Sweep reclaims expired leases: every unsettled cell of a lease whose
// deadline passed re-queues immediately. Runs on the sweeper ticker;
// exposed for deterministic tests.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for id, l := range c.leases {
		if l.deadline.After(now) {
			continue
		}
		delete(c.leases, id)
		c.met.expired.Inc()
		c.queue = append(c.queue, l.cells...)
		requeued := len(l.cells)
		c.log.Warn("lease expired",
			"lease_id", id, "worker_id", l.worker, "requeued", requeued)
	}
	c.promoteRipeLocked(now)
	c.syncGaugesLocked()
}

// LeaseStatus is one outstanding lease in a Status snapshot.
type LeaseStatus struct {
	ID        string `json:"id"`
	Worker    string `json:"worker"`
	Cells     int    `json:"cells"`
	Renews    int    `json:"renews"`
	ExpiresMs int64  `json:"expiresInMs"`
}

// WorkerStatus is one worker's view in a Status snapshot.
type WorkerStatus struct {
	Name       string `json:"name"`
	Settled    int    `json:"settled"`
	LastSeenMs int64  `json:"lastSeenMsAgo"`
}

// Status is the /cluster/status observability snapshot.
type Status struct {
	Epoch         int64          `json:"epoch"`
	Queue         int            `json:"queue"`
	Delayed       int            `json:"delayed"`
	Settled       int            `json:"settled"`
	ExpiredLeases int            `json:"expiredLeases"`
	Leases        []LeaseStatus  `json:"leases"`
	Workers       []WorkerStatus `json:"workers"`
	Poisoned      []PoisonReport `json:"poisoned,omitempty"`
}

// Status snapshots the coordinator for observability. Every numeric
// field is read back out of the registry instruments that /metrics
// exposes — the JSON status and a scrape are two views of the same
// counters and can never disagree.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.syncGaugesLocked()
	st := Status{
		Epoch:         c.opts.Epoch,
		Queue:         int(c.met.queueDepth.Value()),
		Delayed:       int(c.met.delayed.Value()),
		Settled:       int(c.met.cellsSettled.Value()),
		ExpiredLeases: int(c.met.expired.Value()),
		Leases:        make([]LeaseStatus, 0, len(c.leases)),
		Workers:       make([]WorkerStatus, 0, len(c.workers)),
		Poisoned:      append([]PoisonReport(nil), c.poisoned...),
	}
	for _, l := range c.leases {
		st.Leases = append(st.Leases, LeaseStatus{
			ID:        l.id,
			Worker:    l.worker,
			Cells:     len(l.cells),
			Renews:    l.renews,
			ExpiresMs: l.deadline.Sub(now).Milliseconds(),
		})
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].ID < st.Leases[j].ID })
	for name, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			Name:       name,
			Settled:    int(w.settledC.Value()),
			LastSeenMs: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

// SetClock replaces the coordinator's time source — deterministic tests
// drive expiry by advancing a fake clock and calling Sweep directly.
func (c *Coordinator) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}
