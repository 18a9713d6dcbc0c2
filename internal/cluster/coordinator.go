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
	// MaxBatch caps the cells in one lease. Default 8. It also sizes the
	// pending settlements past which a completer writes them itself
	// (helpBoundLocked).
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
	// before the coordinator grants a lease, accepts a settlement, and
	// writes a group of settlements — the paths that lead to durable
	// writes on shared state. It returns nil while
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
// sweeps and settlement bookkeeping. A settlement's durable write
// (CellsDone, or CellDone per cell) runs outside it, off the completing
// worker's path, as a group commit of every settlement accepted since
// the last write; see settle.
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
	settled  map[string]bitset      // per campaign, the terminally settled (done or poisoned) indices
	settling map[cellID]bool        // reserved by a settlement that is not yet published
	workers  map[string]*workerInfo // per-worker stats
	poisoned []PoisonReport
	leaseSeq int
	draining bool // shutting down: Claim answers ErrDraining
	fenced   bool // deposed: every operation answers ErrFenced

	// The group commit: settlements accepted but not yet taken by a
	// write, in reservation order, and the writers' state.
	pending      []settlement
	pendingCells int
	writing      bool      // a sink write is in flight
	committer    bool      // a committer goroutine is running
	stopped      bool      // Stop was called: completers write their own settlements
	written      sync.Cond // on mu; broadcast when a write publishes or the committer exits
	// ready, when non-nil, is closed as soon as the queue holds a cell:
	// idle in-process workers wait on it (wakeup).
	ready chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup
}

// bitset is one campaign's set of grid indices, one bit per index.
type bitset []uint64

func (b bitset) has(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(b)) && b[w]&(1<<(i&63)) != 0
}

// with adds index i ≥ 0, growing the set as needed.
func (b bitset) with(i int) bitset {
	w := i >> 6
	if w >= len(b) {
		b = append(b, make([]uint64, w+1-len(b))...)
	}
	b[w] |= 1 << (i & 63)
	return b
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
		settled:  make(map[string]bitset),
		settling: make(map[cellID]bool),
		workers:  make(map[string]*workerInfo),
		stop:     make(chan struct{}),
	}
	c.written.L = &c.mu
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

// Stop halts the expiry sweeper and returns once every settlement
// accepted so far has been written and published (or dropped, on a
// fenced coordinator), so a caller may close the store next.
// Outstanding leases stay claimable to completion by in-flight
// workers; no new expiry reclaims happen, and a settlement accepted
// after Stop is written by its completer before Complete returns.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.stop)
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 || c.writing || c.committer {
		if c.writing || c.committer {
			c.written.Wait()
		} else {
			c.writeLocked()
		}
	}
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
		case c.settled[id.campaign].has(id.index):
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
		err := json.Unmarshal(blob, &rep)
		if err == nil && rep.Index < 0 {
			err = fmt.Errorf("negative cell index %d", rep.Index)
		}
		if err != nil {
			c.log.Warn("undecodable poison report in journal", "cell", key, "error", err.Error())
			continue
		}
		c.markSettledLocked(cellID{rep.Campaign, rep.Index})
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
// authoritative in-memory state, and wakes the idle workers once the
// queue holds a cell. Called after every mutation under mu, so a
// /metrics scrape and a /cluster/status snapshot always agree, and a
// submit or any requeue reaches a waiting worker at once.
func (c *Coordinator) syncGaugesLocked() {
	c.met.queueDepth.Set(float64(len(c.queue)))
	c.met.delayed.Set(float64(len(c.delayed)))
	c.met.inflight.Set(float64(len(c.leases)))
	if c.ready != nil && len(c.queue) > 0 {
		close(c.ready)
		c.ready = nil
	}
	if testHookMutated != nil {
		testHookMutated(c)
	}
}

// closedReady is the wakeup channel of a queue that already holds work.
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// wakeup returns a channel that is closed once the ready queue holds a
// cell: an in-process worker whose Claim found nothing waits on it
// (besides its poll interval, which still paces backoff retries).
func (c *Coordinator) wakeup() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) > 0 {
		return closedReady
	}
	if c.ready == nil {
		c.ready = make(chan struct{})
	}
	return c.ready
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

// Complete settles a lease with the worker's results. It returns once
// the settlement is accepted, before its results are durable: the
// write follows as a group commit (see settle). Against an
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

// helpFactor scales the pending-settlement bound past which a completer
// writes the queue itself (helpBoundLocked).
const helpFactor = 2

// settle accepts a lease's results and returns; the durable write runs
// later, as a group commit:
//
//   - reserve, under mu, on the completer's goroutine: the fence and
//     Guard checks, the lease removed, its results sorted into done,
//     missing and failed, and every done and failed cell marked
//     settling. The settlement joins the pending queue.
//   - write, outside mu: whichever writer finds no write in flight takes
//     the pending settlements in reservation order and persists their
//     done cells with one sink call (writeLocked). The writer is a
//     committer goroutine, started when the queue goes non-empty and
//     gone once it is empty again, or — when the queue has outgrown
//     helpBoundLocked and no write is in flight — the completer itself.
//     A completer that finds a write in flight never waits for it.
//   - publish, under mu again: each settlement in turn, its failed cells
//     first and then its persisted cells; a cell whose write failed
//     takes the retry path.
//
// While a cell is settling, Submit treats it as known, as if it had
// settled. A coordinator that dies before publishing loses the pending
// settlements; its successor's re-plan finds their cells missing from
// the store and recomputes them bit-identically.
func (c *Coordinator) settle(leaseID string, results []CellResult, partial bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.reserveLocked(leaseID, results, partial)
	if err != nil || len(s.cells)+len(s.failed) == 0 {
		return err
	}
	c.pending = append(c.pending, s)
	c.pendingCells += len(s.cells) + len(s.failed)
	for len(c.pending) > 0 && !c.writing && (c.stopped || c.pendingCells > c.helpBoundLocked()) {
		c.writeLocked()
	}
	if len(c.pending) > 0 && !c.writing && !c.committer {
		c.committer = true
		go c.commit()
	}
	return nil
}

// helpBoundLocked is the number of pending cells past which a completer
// that finds no write in flight writes the queue itself: helpFactor
// leases of MaxBatch cells per known worker. While every worker
// simulates, the committer goroutine gets a core only once per
// scheduler slice, so without this the queue would grow for as long.
// Caller holds mu.
func (c *Coordinator) helpBoundLocked() int {
	return helpFactor * c.opts.MaxBatch * max(len(c.workers), 1)
}

// commit is the committer goroutine: it writes pending settlements until
// the queue is empty or another writer holds the write.
func (c *Coordinator) commit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 && !c.writing {
		c.writeLocked()
	}
	c.committer = false
	c.written.Broadcast()
}

// settlement is a lease's reserved cells between settle's reserve and
// publish steps: its done cells with their results, its failed cells
// with their causes, the worker that computed them and when the
// settlement was accepted.
type settlement struct {
	worker   *workerInfo
	accepted time.Time
	cells    []Cell
	results  []*caem.Result
	failed   []failedCell
}

// failedCell is a cell its worker reported failed, with the cause.
type failedCell struct {
	cell  Cell
	cause error
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
	s := settlement{worker: c.workers[l.worker], accepted: time.Now()}
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
			c.settling[id] = true
			s.failed = append(s.failed, failedCell{cell, fmt.Errorf("%s", r.Error)})
		}
	}
	c.syncGaugesLocked()
	return s, nil
}

// writeLocked takes one group of pending settlements, writes it and
// publishes it. A group is the head settlement and every following one
// without failed cells, so that the sink sees each settlement's failed
// cells (published before the write) ahead of its done cells (persisted
// by it), in reservation order. The leadership check runs once, right
// before the write: a fenced coordinator drops every pending settlement
// and writes and publishes nothing, and an inconclusive check re-queues
// the group's cells with no penalty. Caller holds mu; it is released
// during the sink call.
func (c *Coordinator) writeLocked() {
	n := 1
	for n < len(c.pending) && len(c.pending[n].failed) == 0 {
		n++
	}
	group := c.pending[:n:n]
	defer clear(group) // the rest of the array may stay pending
	c.pending = c.pending[n:]
	if len(c.pending) == 0 {
		c.pending = nil
	}
	var cells []Cell
	var results []*caem.Result
	if n == 1 {
		cells, results = group[0].cells, group[0].results
	} else {
		for _, s := range group {
			cells = append(cells, s.cells...)
			results = append(results, s.results...)
		}
	}
	c.pendingCells -= len(cells) + len(group[0].failed)

	var err error
	if !c.fenced {
		err = c.verifyLeadershipLocked()
	}
	if c.fenced {
		c.dropPendingLocked(group)
		return
	}
	if err != nil {
		for _, s := range group {
			for _, f := range s.failed {
				delete(c.settling, f.cell.id())
				c.queue = append(c.queue, f.cell)
			}
			for _, cell := range s.cells {
				delete(c.settling, cell.id())
				c.queue = append(c.queue, cell)
			}
		}
		c.log.Warn("settlement write skipped; its cells re-queue",
			"cells", len(cells)+len(group[0].failed), "error", err.Error())
		c.syncGaugesLocked()
		c.written.Broadcast()
		return
	}

	now := c.now()
	for _, f := range group[0].failed {
		delete(c.settling, f.cell.id())
		c.retryLocked(f.cell, now, f.cause)
	}
	c.syncGaugesLocked()
	var errs []error
	if len(cells) > 0 {
		c.met.commitCells.Observe(float64(len(cells)))
		c.writing = true
		c.mu.Unlock()
		errs = c.persist(cells, results)
		c.mu.Lock()
		c.writing = false
	}
	if c.fenced {
		c.dropPendingLocked(group)
		return
	}
	c.publishLocked(group, errs)
	c.written.Broadcast()
}

// dropPendingLocked forgets the group and every pending settlement: a
// fenced coordinator publishes nothing, since its successor may already
// be replaying the journal, and the successor's re-plan restores
// whatever reached the store and re-queues the rest. Caller holds mu.
func (c *Coordinator) dropPendingLocked(group []settlement) {
	for _, s := range append(group, c.pending...) {
		for _, f := range s.failed {
			delete(c.settling, f.cell.id())
		}
		for _, cell := range s.cells {
			delete(c.settling, cell.id())
		}
	}
	c.pending, c.pendingCells = nil, 0
	c.syncGaugesLocked()
	c.written.Broadcast()
}

// persist is the write step, run outside mu. It returns one error per
// cell, nil where the result is now durable.
func (c *Coordinator) persist(cells []Cell, results []*caem.Result) []error {
	if b, ok := c.sink.(BatchSink); ok {
		return b.CellsDone(cells, results)
	}
	errs := make([]error, len(cells))
	for i, cell := range cells {
		errs[i] = c.sink.CellDone(cell, results[i])
	}
	return errs
}

// publishLocked is the last step of a write. A cell whose write failed
// (a transient store fault) goes through the retry path rather than
// being lost. A settled cell needs no journal record: the store write
// that just returned is the record, and a successor's re-plan finds it
// there. Caller holds mu.
func (c *Coordinator) publishLocked(group []settlement, errs []error) {
	now, at := c.now(), time.Now()
	k := 0
	for _, s := range group {
		for _, cell := range s.cells {
			delete(c.settling, cell.id())
			if errs[k] != nil {
				c.retryLocked(cell, now, errs[k])
			} else {
				c.markSettledLocked(cell.id())
				c.met.cellsSettled.Inc()
				if s.worker != nil {
					s.worker.settledC.Inc()
				}
			}
			k++
		}
		c.met.settleSeconds.Observe(at.Sub(s.accepted).Seconds())
	}
	c.syncGaugesLocked()
}

// markSettledLocked records a cell as terminally settled. Caller holds
// mu.
func (c *Coordinator) markSettledLocked(id cellID) {
	c.settled[id.campaign] = c.settled[id.campaign].with(id.index)
}

// retryLocked schedules a failed cell's next attempt — exponential
// backoff with deterministic jitter — or poisons it once the attempt
// budget is spent. Caller holds mu.
func (c *Coordinator) retryLocked(cell Cell, now time.Time, cause error) {
	key := cell.Key()
	c.attempts[key]++
	n := c.attempts[key]
	if n >= c.opts.MaxAttempts {
		c.markSettledLocked(cell.id())
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
