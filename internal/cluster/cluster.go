// Package cluster distributes campaign cells across worker processes
// with a lease/heartbeat protocol and a first-class fault-tolerance
// layer.
//
// A Coordinator owns the work queue: campaign cells — self-contained
// (scenario, config) descriptors keyed by (campaign, index) — are
// submitted once and handed out in leases. A lease is a batch of cells
// with a deadline; the holding worker renews it (heartbeats) while
// executing and completes it with results. A lease whose deadline
// passes without renewal is presumed dead — its unsettled cells go
// straight back on the queue. Because every cell is deterministic and
// the results store writes each content-addressed key once, keeping the
// first of equal results, duplicate execution is harmless, so expiry can
// be eager: losing a worker costs only the re-execution of its in-flight
// batch.
//
// Failure handling is graded rather than binary:
//
//   - A worker that dies (crash, SIGKILL, network partition) simply
//     stops renewing; its cells re-queue on expiry with no penalty.
//   - A cell that *reports* a failure is retried with exponential
//     backoff plus deterministic jitter, up to Options.MaxAttempts.
//   - A cell that keeps failing is poisoned: reported to the Sink as
//     terminally failed and never retried again — graceful degradation
//     instead of livelock.
//
// Claim batch sizes follow guided self-scheduling: large batches while
// the queue is deep (amortizing round-trips), shrinking as it drains so
// irregular cell costs — network-death runs vary wildly in length —
// cannot strand the tail of a campaign behind one slow worker.
//
// Workers run each cell on a resident caem.SimPool and are oblivious to
// campaign bookkeeping; the Queue interface is implemented both by the
// Coordinator itself (in-process workers) and by Remote (workers joined
// over HTTP via cmd/caem-serve -join). Chaos provides deterministic
// fault injection — dropped heartbeats, delayed renewals, a worker
// killed mid-lease, transient cell and store-write failures — so the
// differential gate can prove that a clustered campaign with injected
// worker deaths produces a byte-identical report to a single-process
// run.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/caem"
)

// Cell is one self-contained unit of cluster work: everything a worker
// needs to execute a campaign cell, plus the identity the coordinator
// needs to settle it. Cells travel over the wire as JSON; the config
// and scenario round-trip exactly (floats re-encode bit-identically),
// so a remote execution is bit-identical to a local one.
type Cell struct {
	// Campaign and Index identify the cell within its campaign grid.
	Campaign string `json:"campaign"`
	Index    int    `json:"index"`
	// Hash is the caem.CellHash content hash under which the result is
	// stored.
	Hash string `json:"hash"`
	// Scenario is the full scenario spec and Config the fully resolved
	// configuration (protocol and seed set, Workers pinned to 1).
	Scenario caem.Scenario `json:"scenario"`
	Config   caem.Config   `json:"config"`
}

// Key renders the cell's identity as the journal records it
// ("campaign/index").
func (c Cell) Key() string { return fmt.Sprintf("%s/%d", c.Campaign, c.Index) }

// cellID is a cell's identity inside the coordinator: the pair that Key
// renders, kept as a comparable value so bookkeeping maps allocate no
// key string per cell.
type cellID struct {
	campaign string
	index    int
}

// id returns the cell's coordinator identity.
func (c Cell) id() cellID { return cellID{c.Campaign, c.Index} }

// CellResult is a worker's verdict on one leased cell: either a full
// Result or an error string describing a (presumed transient) failure.
type CellResult struct {
	Campaign string       `json:"campaign"`
	Index    int          `json:"index"`
	Result   *caem.Result `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// Lease is a batch of cells granted to one worker under a heartbeat
// deadline. The worker must renew within TTLMillis or the coordinator
// presumes it dead and re-queues the cells. Epoch is the leadership
// epoch the lease was granted under (also embedded in the ID); leases
// from a dead epoch are fenced by the successor coordinator.
type Lease struct {
	ID        string `json:"id"`
	Worker    string `json:"worker"`
	Cells     []Cell `json:"cells"`
	TTLMillis int64  `json:"ttlMs"`
	Epoch     int64  `json:"epoch,omitempty"`
}

// ErrLeaseGone reports a renew/complete/release against a lease the
// coordinator no longer holds — it expired (and its cells re-queued) or
// never existed. The worker should drop the batch and claim fresh work;
// any results it computed are safely discarded because the re-queued
// cells will reproduce them bit-identically.
var ErrLeaseGone = errors.New("cluster: lease expired or unknown")

// ErrFenced reports an operation carrying a dead leadership epoch: a
// lease granted by a deposed coordinator arriving at its successor, or
// any write reaching a coordinator that has fenced itself after losing
// the leader lock. Like ErrLeaseGone the correct response is to drop
// the batch — but also to re-resolve the leader, because the caller is
// evidently talking across an epoch boundary.
var ErrFenced = errors.New("cluster: operation fenced (dead leadership epoch)")

// ErrModelMismatch reports a claim refused because the worker runs
// another simulation model (caem.ModelVersion) or another GOARCH than
// the coordinator. Its Results would not be the ones the campaign's
// cell hashes stand for, and no retry can change that, so Worker.Run
// returns it instead of retrying. Over HTTP it is a 409 with envelope
// code model_mismatch.
var ErrModelMismatch = errors.New("cluster: worker runs another simulation model than the coordinator")

// ErrDraining reports a Claim against a coordinator that has stopped
// granting work because it is shutting down. Workers should back off
// and retry — over HTTP this maps to 503 with a Retry-After header.
var ErrDraining = errors.New("cluster: coordinator is draining; no new leases")

// UnavailableError is the client-side form of a 503 from the
// coordinator: temporarily out of service, retry after the hint.
type UnavailableError struct {
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("cluster: coordinator unavailable (retry after %v)", e.RetryAfter)
}

// LeaderInfo is the GET /v1/cluster/leader document: where the current
// leader is reachable and at which epoch. Standbys serve it too, so a
// worker pointed at any member of the cluster can re-resolve the
// leader after a failover.
type LeaderInfo struct {
	LeaderURL string `json:"leaderUrl"`
	Epoch     int64  `json:"epoch"`
	Role      string `json:"role"` // leader | standby
}

// Queue is the work-distribution surface between workers and the
// coordinator. The Coordinator implements it in-process; Remote
// implements it over HTTP for joined worker processes.
type Queue interface {
	// Claim requests a batch of at most max cells. A nil lease (with nil
	// error) means no work is available right now.
	Claim(worker string, max int) (*Lease, error)
	// Renew extends the lease deadline; ErrLeaseGone after expiry.
	Renew(leaseID string) error
	// Complete settles the lease with one result per leased cell. A nil
	// return acknowledges acceptance, not durability: the coordinator
	// writes the results afterwards, and if it dies first its successor
	// recomputes them.
	Complete(leaseID string, results []CellResult) error
	// Release returns a lease early (graceful worker shutdown): the
	// completed results settle, every other cell re-queues immediately
	// with no retry penalty.
	Release(leaseID string, results []CellResult) error
}

// Sink receives cell lifecycle callbacks from the coordinator.
// CellStarted and CellFailed run under the coordinator lock. CellDone
// persists the result and runs outside it, on the write path of the
// coordinator's group commit: one write at a time, so CellDone and
// CellsDone calls never overlap each other, though they may run
// concurrently with CellStarted and CellFailed. Settlements arrive in
// the order they were accepted, each one's failed cells retried or
// poisoned (CellFailed) before its done cells reach CellDone. A
// non-nil return (for example a transient store write error) re-queues
// the cell through the same retry/backoff path as a worker-reported
// failure. CellFailed is terminal: the cell is poisoned and will not
// run again.
type Sink interface {
	CellStarted(c Cell)
	CellDone(c Cell, res *caem.Result) error
	CellFailed(c Cell, attempts int, err error)
}

// BatchSink is an optional Sink extension that the coordinator detects.
// A BatchSink receives each group commit — every lease settled since the
// previous write, in the order they were accepted — in one CellsDone
// call, so it can make them durable with one write instead of one
// CellDone per cell. CellsDone runs outside the coordinator lock and one
// call at a time, like CellDone. It returns one error per cell, in
// order: nil where the result is durable, otherwise the cause, which
// sends that cell through the retry/backoff path.
type BatchSink interface {
	Sink
	CellsDone(cells []Cell, results []*caem.Result) []error
}
