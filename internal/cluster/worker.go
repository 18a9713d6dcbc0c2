package cluster

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/caem"
	"repro/internal/obs"
)

// ErrWorkerKilled is returned by Worker.Run when the Chaos kill budget
// fires: the worker "dies" mid-lease without completing or releasing,
// so its cells can only come back through heartbeat expiry.
var ErrWorkerKilled = errors.New("cluster: worker killed by chaos injection")

// Worker pulls leases from a Queue and executes their cells on a
// resident caem.SimPool. One Worker drives one executor loop; run
// several (each with its own Worker value) to use more cores. Workers
// are stateless between leases — all fault tolerance lives with the
// coordinator — so a worker process can appear, disappear, or be killed
// at any point without corrupting a campaign.
type Worker struct {
	// Queue distributes the work: the Coordinator itself for in-process
	// workers, a Remote for workers joined over HTTP.
	Queue Queue
	// Name identifies the worker in leases and /cluster/status.
	Name string
	// Poll is the idle re-claim interval when no work is available
	// (default 200ms). A worker whose Queue is the Coordinator itself
	// also wakes as soon as cells are queued.
	Poll time.Duration
	// Chaos, when non-nil, injects deterministic faults.
	Chaos *Chaos
	// Metrics receives the worker's instruments (cells completed,
	// simulated seconds, heartbeat RTT). Nil gets a private registry.
	Metrics *obs.Registry
	// Logger receives structured worker records. Nil discards.
	Logger *slog.Logger

	cellsRun int
	met      *workerMetrics
	log      *slog.Logger
}

// Run claims and executes leases until ctx is cancelled. Cancellation
// is graceful: the in-flight cell finishes, then the lease is released
// — finished results settle, unfinished cells re-queue immediately for
// other workers — and Run returns nil. A Queue error (coordinator
// unreachable) is retried at the poll interval rather than returned, so
// a worker survives coordinator restarts. The exception is
// ErrModelMismatch: the coordinator computes with another model, no
// retry can change that, and Run returns the error.
func (w *Worker) Run(ctx context.Context) error {
	reg := w.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w.met = newWorkerMetrics(reg, w.Name)
	w.log = w.Logger
	if w.log == nil {
		w.log = obs.NopLogger()
	}
	w.log = w.log.With("worker_id", w.Name)
	pool := caem.NewSimPool()
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	claimFails := 0
	var lastTTL time.Duration // most recent lease TTL; caps the backoff
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		if w.Chaos.shouldDie(w.cellsRun) {
			// Kill budget spent between leases: die here rather than
			// claiming (and stranding) more work.
			w.log.Warn("worker killed by chaos injection", "cells_run", w.cellsRun)
			return ErrWorkerKilled
		}
		lease, err := w.Queue.Claim(w.Name, 0) // 0: the coordinator's Options.MaxBatch
		if errors.Is(err, ErrModelMismatch) {
			return err
		}
		if err != nil {
			claimFails++
			w.met.claimRetries.Inc()
			var ua *UnavailableError
			if errors.Is(err, ErrFenced) || errors.As(err, &ua) {
				// The member we reached is not the leader: fenced means it
				// was deposed, 503 means it is a standby (or draining).
				// Either way, skip straight to whoever leads, when the
				// Queue can tell us — a worker joined only to standbys
				// would otherwise poll 503s forever.
				if res, ok := w.Queue.(interface{ ResolveLeader() (LeaderInfo, error) }); ok {
					if info, rerr := res.ResolveLeader(); rerr == nil {
						w.log.Info("re-resolved cluster leader",
							"leader_url", info.LeaderURL, "epoch", info.Epoch)
					}
				}
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(w.claimBackoff(claimFails, lastTTL, err, poll)):
			}
			continue
		}
		claimFails = 0
		if lease == nil {
			// An in-process worker is woken by the next Submit or requeue;
			// the poll still paces retries of cells backing off.
			var wake <-chan struct{}
			if c, ok := w.Queue.(*Coordinator); ok {
				wake = c.wakeup()
			}
			select {
			case <-ctx.Done():
				return nil
			case <-wake:
			case <-time.After(poll):
			}
			continue
		}
		if ttl := time.Duration(lease.TTLMillis) * time.Millisecond; ttl > 0 {
			lastTTL = ttl
		}
		if err := w.runLease(ctx, pool, lease); err != nil {
			return err
		}
	}
}

// claimBackoff sizes the wait after the n-th consecutive failed claim:
// exponential from the poll interval with deterministic jitter, never
// exceeding the lease TTL — a worker that waits longer than a TTL
// between probes could miss an entire failover window. A coordinator
// that answered 503 with a Retry-After hint gets that hint honored
// (under the same cap) instead of the exponential schedule.
func (w *Worker) claimBackoff(n int, leaseTTL time.Duration, cause error, poll time.Duration) time.Duration {
	cap := 15 * time.Second
	if leaseTTL > 0 && leaseTTL < cap {
		cap = leaseTTL
	}
	var ua *UnavailableError
	if errors.As(cause, &ua) && ua.RetryAfter > 0 {
		if ua.RetryAfter < cap {
			return ua.RetryAfter
		}
		return cap
	}
	shift := n - 1
	if shift > 6 {
		shift = 6
	}
	delay := poll << shift
	if delay > cap {
		delay = cap
	}
	delay += jitter(w.Name, n, delay/2)
	if delay > cap {
		delay = cap
	}
	return delay
}

// runLease executes one lease under a heartbeat, then settles it.
func (w *Worker) runLease(ctx context.Context, pool *caem.SimPool, l *Lease) error {
	// Heartbeat: renew at TTL/3 until the lease settles. A lost lease
	// (ErrLeaseGone) flips gone so the executor abandons the rest of the
	// batch — the coordinator has already re-queued it.
	var gone atomic.Bool
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	ttl := time.Duration(l.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for n := 1; ; n++ {
			select {
			case <-hbStop:
				return
			case <-t.C:
			}
			if w.Chaos.dropRenewal(l.ID, n) {
				continue
			}
			if d := w.Chaos.delayRenewal(l.ID, n); d > 0 {
				select {
				case <-hbStop:
					return
				case <-time.After(d):
				}
			}
			start := time.Now()
			err := w.Queue.Renew(l.ID)
			w.met.hbRTT.Observe(time.Since(start).Seconds())
			if errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrFenced) {
				// Gone and fenced both mean the batch belongs to someone
				// else now — a fenced lease's epoch died with its grantor.
				w.log.Warn("lease lost mid-batch", "lease_id", l.ID,
					"fenced", errors.Is(err, ErrFenced))
				gone.Store(true)
				return
			}
		}
	}()
	stopHeartbeat := func() {
		close(hbStop)
		<-hbDone
	}

	w.log.Debug("lease claimed", "lease_id", l.ID, "cells", len(l.Cells))
	results := make([]CellResult, 0, len(l.Cells))
	for _, cell := range l.Cells {
		if w.Chaos.shouldDie(w.cellsRun) {
			stopHeartbeat() // SIGKILL stand-in: heartbeats stop with the process
			w.log.Warn("worker killed by chaos injection",
				"lease_id", l.ID, "cells_run", w.cellsRun)
			return ErrWorkerKilled
		}
		if gone.Load() {
			break // lease expired under us; the batch is someone else's now
		}
		r := CellResult{Campaign: cell.Campaign, Index: cell.Index}
		if err := w.Chaos.failCell(cell); err != nil {
			r.Error = err.Error()
		} else {
			w.met.poolRuns.Inc()
			if res, err := pool.RunScenario(cell.Scenario, cell.Config); err != nil {
				r.Error = err.Error()
			} else {
				r.Result = &res
			}
		}
		if r.Error != "" {
			w.met.failed.Inc()
			w.log.Warn("cell failed",
				"lease_id", l.ID, "campaign", cell.Campaign, "cell", cell.Index, "error", r.Error)
		} else {
			w.met.cells.Inc()
			w.met.simSecs.Add(cell.Config.DurationSeconds)
		}
		w.cellsRun++
		results = append(results, r)
		if ctx.Err() != nil {
			break // graceful shutdown: release what we have
		}
	}
	stopHeartbeat()

	if gone.Load() {
		return nil // nothing to settle; results are recomputed elsewhere
	}
	if ctx.Err() != nil || len(results) < len(l.Cells) {
		w.log.Info("lease released", "lease_id", l.ID, "results", len(results))
		w.Queue.Release(l.ID, results)
		return nil
	}
	// Complete's only failure mode that matters is a lost lease, and
	// dropping the batch is the correct response to it either way.
	w.log.Debug("lease completed", "lease_id", l.ID, "results", len(results))
	w.Queue.Complete(l.ID, results)
	return nil
}
