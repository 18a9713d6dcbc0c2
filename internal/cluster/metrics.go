package cluster

import (
	"repro/internal/obs"
)

// Metric families owned by this package. Instrumentation is at lease
// and cell granularity — a handful of instrument updates per lease,
// never per simulation event — so the hot simulation loop stays
// allocation-free.
const (
	metricLeaseClaims    = "caem_lease_claims_total"
	metricLeaseRenews    = "caem_lease_renews_total"
	metricLeaseExpired   = "caem_lease_expired_total"
	metricLeaseReleased  = "caem_lease_released_total"
	metricLeaseCompleted = "caem_lease_completed_total"
	metricCellsSettled   = "caem_cells_settled_total"
	metricCellsRetried   = "caem_cells_retried_total"
	metricCellsPoisoned  = "caem_cells_poisoned_total"
	metricQueueDepth     = "caem_coordinator_queue_depth"
	metricDelayedCells   = "caem_coordinator_delayed_cells"
	metricInflight       = "caem_coordinator_inflight_leases"
	metricBatchCells     = "caem_lease_batch_cells"
	metricWorkerSettled  = "caem_worker_settled_total"
	metricCommitCells    = "caem_settle_commit_cells"
	metricSettleSeconds  = "caem_settle_seconds"

	metricClusterEpoch = "caem_cluster_epoch"
	metricFenced       = "caem_cluster_fenced_total"
	metricTakeovers    = "caem_cluster_takeovers_total"

	metricWorkerCells        = "caem_worker_cells_completed_total"
	metricWorkerFailed       = "caem_worker_cells_failed_total"
	metricWorkerSimSecs      = "caem_worker_simulated_seconds_total"
	metricWorkerPoolRuns     = "caem_worker_pool_runs_total"
	metricWorkerHeartbeat    = "caem_worker_heartbeat_rtt_seconds"
	metricWorkerClaimRetries = "caem_worker_claim_retries_total"
)

// commitBuckets spans a group commit's size, from one single-cell lease
// to the hundreds of cells that pile up behind a slow fsync.
var commitBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// coordMetrics holds the coordinator's instrument handles. Every
// numeric field of a /cluster/status snapshot is read back out of
// these instruments, so the JSON view and the /metrics exposition can
// never disagree.
type coordMetrics struct {
	claims        *obs.Counter
	renews        *obs.Counter
	expired       *obs.Counter
	released      *obs.Counter
	completed     *obs.Counter
	cellsSettled  *obs.Counter
	cellsRetried  *obs.Counter
	cellsPoisoned *obs.Counter
	queueDepth    *obs.Gauge
	delayed       *obs.Gauge
	inflight      *obs.Gauge
	batchCells    *obs.Histogram
	commitCells   *obs.Histogram
	settleSeconds *obs.Histogram
	workerSettled *obs.CounterVec
	epoch         *obs.Gauge
	fenced        *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		claims: reg.Counter(metricLeaseClaims,
			"Leases granted to workers."),
		renews: reg.Counter(metricLeaseRenews,
			"Lease heartbeat renewals accepted."),
		expired: reg.Counter(metricLeaseExpired,
			"Leases reclaimed by the expiry sweep after missed heartbeats."),
		released: reg.Counter(metricLeaseReleased,
			"Leases returned early by gracefully shutting-down workers."),
		completed: reg.Counter(metricLeaseCompleted,
			"Leases settled with a full batch of results."),
		cellsSettled: reg.Counter(metricCellsSettled,
			"Cells terminally settled with a persisted result."),
		cellsRetried: reg.Counter(metricCellsRetried,
			"Cell failures scheduled for a backoff retry."),
		cellsPoisoned: reg.Counter(metricCellsPoisoned,
			"Cells poisoned after exhausting their retry budget."),
		queueDepth: reg.Gauge(metricQueueDepth,
			"Cells on the ready queue awaiting a lease."),
		delayed: reg.Gauge(metricDelayedCells,
			"Failed cells waiting out their retry backoff."),
		inflight: reg.Gauge(metricInflight,
			"Leases currently outstanding to workers."),
		batchCells: reg.Histogram(metricBatchCells,
			"Cells per granted lease — the guided self-scheduling batch size.",
			obs.SizeBuckets),
		commitCells: reg.Histogram(metricCommitCells,
			"Cells per durable settlement write — the group commit's batch size.",
			commitBuckets),
		settleSeconds: reg.Histogram(metricSettleSeconds,
			"Seconds from a settlement's acceptance to its publication, durable write included.",
			obs.LatencyBuckets),
		workerSettled: reg.CounterVec(metricWorkerSettled,
			"Cells settled per worker — the per-worker throughput series.",
			"worker"),
		epoch: reg.Gauge(metricClusterEpoch,
			"Leadership epoch this coordinator was elected at."),
		fenced: reg.Counter(metricFenced,
			"Operations rejected for carrying a dead leadership epoch."),
	}
}

// TakeoverCounter returns the takeovers counter on reg — incremented by
// a standby each time it assumes leadership. Exposed as a helper (the
// obs registry is register-or-find, so callers share one instrument)
// because takeovers happen outside any coordinator's lifetime.
func TakeoverCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter(metricTakeovers,
		"Leadership takeovers completed by a standby coordinator.")
}

// workerMetrics holds one worker's instrument handles, pre-bound to
// its worker label so hot-path updates are label-lookup-free.
type workerMetrics struct {
	cells        *obs.Counter
	failed       *obs.Counter
	simSecs      *obs.Counter
	poolRuns     *obs.Counter
	hbRTT        *obs.Histogram
	claimRetries *obs.Counter
}

func newWorkerMetrics(reg *obs.Registry, worker string) *workerMetrics {
	return &workerMetrics{
		cells: reg.CounterVec(metricWorkerCells,
			"Cells executed to a result by each worker.", "worker").With(worker),
		failed: reg.CounterVec(metricWorkerFailed,
			"Cells that reported a failure on each worker.", "worker").With(worker),
		simSecs: reg.CounterVec(metricWorkerSimSecs,
			"Simulated seconds completed by each worker; rate() gives simulated-seconds/sec throughput.",
			"worker").With(worker),
		poolRuns: reg.CounterVec(metricWorkerPoolRuns,
			"Pooled simulation-context runs (context resets) per worker.", "worker").With(worker),
		hbRTT: reg.Histogram(metricWorkerHeartbeat,
			"Round-trip time of lease heartbeat renewals in seconds.",
			obs.LatencyBuckets),
		claimRetries: reg.CounterVec(metricWorkerClaimRetries,
			"Claim attempts that failed or found the coordinator unavailable, per worker.",
			"worker").With(worker),
	}
}

// RegisterMetrics registers every metric family this package can emit
// on reg without needing a live coordinator or worker — the metric
// catalog surface used by the obs-check lint.
func RegisterMetrics(reg *obs.Registry) {
	newCoordMetrics(reg)
	newWorkerMetrics(reg, "catalog")
	TakeoverCounter(reg)
	obs.RegisterHTTPMetrics(reg)
}
