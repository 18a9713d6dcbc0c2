package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/obs"
)

// testSink records settlement callbacks.
type testSink struct {
	mu      sync.Mutex
	started map[string]int
	done    map[string]caem.Result
	failed  map[string]error
	putErr  func(c Cell) error // injected CellDone failure
}

func newTestSink() *testSink {
	return &testSink{
		started: make(map[string]int),
		done:    make(map[string]caem.Result),
		failed:  make(map[string]error),
	}
}

func (s *testSink) CellStarted(c Cell) {
	s.mu.Lock()
	s.started[c.Key()]++
	s.mu.Unlock()
}

func (s *testSink) CellDone(c Cell, res *caem.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.putErr != nil {
		if err := s.putErr(c); err != nil {
			return err
		}
	}
	s.done[c.Key()] = *res
	return nil
}

func (s *testSink) CellFailed(c Cell, attempts int, err error) {
	s.mu.Lock()
	s.failed[c.Key()] = fmt.Errorf("after %d attempts: %w", attempts, err)
	s.mu.Unlock()
}

func (s *testSink) counts() (done, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done), len(s.failed)
}

// testCells builds n real, fast campaign cells (one scenario, one
// protocol, seeds 1..n).
func testCells(t *testing.T, n int) []Cell {
	t.Helper()
	sc, err := caem.FindScenario("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := caem.ScenarioConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DurationSeconds = 6
	cfg.Workers = 1
	hash, err := caem.CellHash(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]Cell, 0, n)
	for i := 0; i < n; i++ {
		cc := cfg
		cc.Protocol = caem.PureLEACH
		cc.Seed = uint64(i + 1)
		cells = append(cells, Cell{
			Campaign: "test-campaign",
			Index:    i,
			Hash:     hash,
			Scenario: sc,
			Config:   cc,
		})
	}
	return cells
}

// referenceResults runs the same cells directly, no cluster involved.
func referenceResults(t *testing.T, cells []Cell) map[string]caem.Result {
	t.Helper()
	pool := caem.NewSimPool()
	out := make(map[string]caem.Result, len(cells))
	for _, c := range cells {
		res, err := pool.RunScenario(c.Scenario, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		out[c.Key()] = res
	}
	return out
}

// waitSettled polls the sink until done+failed reaches want.
func waitSettled(t *testing.T, sink *testSink, want int) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		d, f := sink.counts()
		if d+f >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	d, f := sink.counts()
	t.Fatalf("only %d done + %d failed settled, want %d", d, f, want)
}

// TestLeaseLifecycle drives the protocol by hand: claim, renew,
// complete; verify batch sizing, sink callbacks, and settled counts.
func TestLeaseLifecycle(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{MaxBatch: 3})
	defer c.Stop()
	cells := testCells(t, 4)
	c.Submit(cells)

	lease, err := c.Claim("w1", 0)
	if err != nil || lease == nil {
		t.Fatalf("claim = %v, %v", lease, err)
	}
	if len(lease.Cells) < 1 || len(lease.Cells) > 3 {
		t.Fatalf("lease has %d cells, want 1..3 (MaxBatch)", len(lease.Cells))
	}
	if err := c.Renew(lease.ID); err != nil {
		t.Fatalf("renew: %v", err)
	}

	results := make([]CellResult, 0, len(lease.Cells))
	pool := caem.NewSimPool()
	for _, cell := range lease.Cells {
		res, err := pool.RunScenario(cell.Scenario, cell.Config)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
	}
	if err := c.Complete(lease.ID, results); err != nil {
		t.Fatalf("complete: %v", err)
	}
	committed(c)
	done, failed := sink.counts()
	if done != len(lease.Cells) || failed != 0 {
		t.Fatalf("settled %d/%d, want %d/0", done, failed, len(lease.Cells))
	}
	// Completing the same lease twice is a protocol error: lease gone.
	if err := c.Complete(lease.ID, results); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("double complete = %v, want ErrLeaseGone", err)
	}
	st := c.Status()
	if st.Settled != len(lease.Cells) || st.Queue != len(cells)-len(lease.Cells) {
		t.Fatalf("status = %+v", st)
	}
}

// TestLeaseExpiryRequeues: a lease that stops renewing is reclaimed by
// the sweep; its cells re-queue, a second worker claims and completes
// them, and the dead worker's late Complete is rejected and must not
// double-settle anything.
func TestLeaseExpiryRequeues(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 8})
	defer c.Stop()

	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	cells := testCells(t, 3)
	c.Submit(cells)

	dead, err := c.Claim("doomed", 0)
	if err != nil || dead == nil {
		t.Fatalf("claim = %v, %v", dead, err)
	}
	if st := c.Status(); len(st.Leases) != 1 {
		t.Fatalf("status shows %d leases, want 1", len(st.Leases))
	}

	// No renewal; advance past the TTL and sweep.
	now = now.Add(2 * time.Hour)
	c.Sweep()
	if err := c.Renew(dead.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("renew after expiry = %v, want ErrLeaseGone", err)
	}
	st := c.Status()
	if st.ExpiredLeases != 1 || st.Queue != len(cells) {
		t.Fatalf("after expiry status = %+v", st)
	}

	// A healthy worker picks the cells back up and completes them.
	pool := caem.NewSimPool()
	for {
		lease, err := c.Claim("healthy", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			break
		}
		var results []CellResult
		for _, cell := range lease.Cells {
			res, err := pool.RunScenario(cell.Scenario, cell.Config)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
		}
		if err := c.Complete(lease.ID, results); err != nil {
			t.Fatal(err)
		}
	}
	committed(c)
	done, _ := sink.counts()
	if done != len(cells) {
		t.Fatalf("settled %d cells, want %d", done, len(cells))
	}

	// The doomed worker finally reports in: rejected, nothing changes.
	var late []CellResult
	for _, cell := range dead.Cells {
		res := sink.done[cell.Key()]
		late = append(late, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
	}
	if err := c.Complete(dead.ID, late); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("late complete = %v, want ErrLeaseGone", err)
	}
	if st := c.Status(); st.Settled != len(cells) {
		t.Fatalf("late complete double-settled: %+v", st)
	}
}

// TestRetryBackoffAndPoison: a cell that keeps failing is retried with
// growing, jittered delays and then poisoned; a cell that fails once
// and then succeeds settles normally.
func TestRetryBackoffAndPoison(t *testing.T) {
	sink := newTestSink()
	opts := Options{LeaseTTL: time.Hour, MaxAttempts: 3, BackoffBase: time.Second, MaxBatch: 8}
	c := NewCoordinator(sink, opts)
	defer c.Stop()
	now := time.Unix(5000, 0)
	c.SetClock(func() time.Time { return now })

	cells := testCells(t, 2)
	c.Submit(cells)
	flakyKey, poisonKey := cells[0].Key(), cells[1].Key()

	pool := caem.NewSimPool()
	attempt := map[string]int{}
	for round := 0; round < 10; round++ {
		lease, err := c.Claim("w", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			// Nothing ripe: jump past every backoff and try again.
			now = now.Add(5 * time.Minute)
			c.Sweep()
			if d, f := sink.counts(); d+f == len(cells) {
				break
			}
			continue
		}
		var results []CellResult
		for _, cell := range lease.Cells {
			attempt[cell.Key()]++
			r := CellResult{Campaign: cell.Campaign, Index: cell.Index}
			fail := cell.Key() == poisonKey || (cell.Key() == flakyKey && attempt[cell.Key()] == 1)
			if fail {
				r.Error = "injected transient failure"
			} else {
				res, err := pool.RunScenario(cell.Scenario, cell.Config)
				if err != nil {
					t.Fatal(err)
				}
				r.Result = &res
			}
			results = append(results, r)
		}
		if err := c.Complete(lease.ID, results); err != nil {
			t.Fatal(err)
		}
		committed(c)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if _, ok := sink.done[flakyKey]; !ok {
		t.Fatalf("flaky cell never settled: done=%v failed=%v", sink.done, sink.failed)
	}
	ferr, ok := sink.failed[poisonKey]
	if !ok {
		t.Fatalf("poison cell not reported as failed")
	}
	if attempt[poisonKey] != opts.MaxAttempts {
		t.Fatalf("poison cell ran %d times, want exactly MaxAttempts=%d", attempt[poisonKey], opts.MaxAttempts)
	}
	st := c.Status()
	if len(st.Poisoned) != 1 || st.Poisoned[0].Attempts != opts.MaxAttempts {
		t.Fatalf("status poisoned = %+v (sink: %v)", st.Poisoned, ferr)
	}
}

// TestBackoffDelaysAreDeterministic: the same cell and attempt must map
// to the same jitter, so chaotic runs replay exactly.
func TestBackoffDelaysAreDeterministic(t *testing.T) {
	for attempt := 1; attempt <= 5; attempt++ {
		a := jitter("camp/7", attempt, 400*time.Millisecond)
		b := jitter("camp/7", attempt, 400*time.Millisecond)
		if a != b {
			t.Fatalf("attempt %d: jitter not deterministic: %v vs %v", attempt, a, b)
		}
		if a < 0 || a > 400*time.Millisecond {
			t.Fatalf("attempt %d: jitter %v out of [0, span]", attempt, a)
		}
	}
	if jitter("camp/7", 1, 400*time.Millisecond) == jitter("camp/8", 1, 400*time.Millisecond) &&
		jitter("camp/7", 2, 400*time.Millisecond) == jitter("camp/8", 2, 400*time.Millisecond) &&
		jitter("camp/7", 3, 400*time.Millisecond) == jitter("camp/8", 3, 400*time.Millisecond) {
		t.Fatal("jitter does not vary across cells at all")
	}
}

// TestTransientStorePutRetries: a sink whose write fails once (the
// injected transient store-write error) re-queues the cell; the next
// completion persists it. Both write paths: per-cell CellDone and a
// BatchSink's CellsDone.
func TestTransientStorePutRetries(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run(kind.name, func(t *testing.T) {
			sink := newTestSink()
			var failOnce sync.Once
			fails := 0
			sink.putErr = func(c Cell) error {
				var err error
				failOnce.Do(func() {
					fails++
					err = errors.New("store write fault")
				})
				return err
			}
			c := NewCoordinator(kind.wrap(sink), Options{LeaseTTL: time.Hour, BackoffBase: time.Millisecond, MaxBatch: 8})
			defer c.Stop()
			now := time.Unix(9000, 0)
			c.SetClock(func() time.Time { return now })

			cells := testCells(t, 1)
			c.Submit(cells)
			pool := caem.NewSimPool()
			for i := 0; i < 5; i++ {
				lease, err := c.Claim("w", 0)
				if err != nil {
					t.Fatal(err)
				}
				if lease == nil {
					now = now.Add(time.Minute)
					continue
				}
				var results []CellResult
				for _, cell := range lease.Cells {
					res, err := pool.RunScenario(cell.Scenario, cell.Config)
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
				}
				if err := c.Complete(lease.ID, results); err != nil {
					t.Fatal(err)
				}
				committed(c)
				if d, _ := sink.counts(); d == 1 {
					break
				}
			}
			if d, f := sink.counts(); d != 1 || f != 0 {
				t.Fatalf("after transient store fault: %d done, %d failed, want 1/0", d, f)
			}
			if fails != 1 {
				t.Fatalf("store fault injected %d times, want 1", fails)
			}
			if b, ok := c.sink.(*batchSink); ok && b.calls.Load() == 0 {
				t.Fatal("the batch sink's CellsDone never ran")
			}
		})
	}
}

// TestWorkersProduceBitIdenticalResults: a full in-process cluster — a
// coordinator and three concurrent workers — must settle every cell
// with results bit-identical to direct execution.
func TestWorkersProduceBitIdenticalResults(t *testing.T) {
	cells := testCells(t, 9)
	want := referenceResults(t, cells)

	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: 5 * time.Second, MaxBatch: 2})
	defer c.Stop()
	c.Submit(cells)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &Worker{Queue: c, Name: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	waitSettled(t, sink, len(cells))
	cancel()
	wg.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for key, ref := range want {
		got, ok := sink.done[key]
		if !ok {
			t.Fatalf("cell %s never settled", key)
		}
		if got.TotalConsumedJ != ref.TotalConsumedJ || got.DeliveryRate != ref.DeliveryRate ||
			got.MeanDelayMs != ref.MeanDelayMs || got.P95DelayMs != ref.P95DelayMs {
			t.Fatalf("cell %s diverged from direct execution:\n got %+v\nwant %+v", key, got, ref)
		}
	}
}

// TestChaosKilledWorkerRecoversThroughExpiry: one worker is killed
// mid-lease by chaos injection (no complete, no release, heartbeats
// stop); the lease expires and a surviving worker finishes the
// campaign with identical results.
func TestChaosKilledWorkerRecoversThroughExpiry(t *testing.T) {
	cells := testCells(t, 8)
	want := referenceResults(t, cells)

	sink := newTestSink()
	c := NewCoordinator(sink, Options{
		LeaseTTL:   300 * time.Millisecond,
		SweepEvery: 50 * time.Millisecond,
		MaxBatch:   3,
	})
	defer c.Stop()
	c.Submit(cells)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The victim runs alone first so its kill is guaranteed to land
	// mid-lease: as the only worker it claims 3 cells (MaxBatch) and dies
	// before the third, leaving the whole lease to expire.
	victim := &Worker{
		Queue: c, Name: "victim", Poll: 5 * time.Millisecond,
		Chaos: &Chaos{KillAfterCells: 2},
	}
	if err := victim.Run(ctx); !errors.Is(err, ErrWorkerKilled) {
		t.Fatalf("victim exited with %v, want ErrWorkerKilled", err)
	}
	if st := c.Status(); len(st.Leases) != 1 {
		t.Fatalf("victim died without an outstanding lease: %+v", st)
	}

	var wg sync.WaitGroup
	survivor := &Worker{Queue: c, Name: "survivor", Poll: 5 * time.Millisecond}
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivor.Run(ctx)
	}()
	waitSettled(t, sink, len(cells))
	cancel()
	wg.Wait()

	st := c.Status()
	if st.ExpiredLeases == 0 {
		t.Fatalf("no lease expired — the kill was not mid-lease: %+v", st)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.failed) != 0 {
		t.Fatalf("worker death poisoned cells: %v", sink.failed)
	}
	for key, ref := range want {
		if got := sink.done[key]; got.TotalConsumedJ != ref.TotalConsumedJ {
			t.Fatalf("cell %s diverged after worker death: %v vs %v", key, got.TotalConsumedJ, ref.TotalConsumedJ)
		}
	}
}

// TestDroppedHeartbeatsExpireLiveWorker: a worker whose renewals are
// all dropped loses its lease mid-cell; the cells re-run elsewhere and
// the worker's late duplicate results are discarded without
// double-settling. The deaf worker's cells are long (≫ TTL) so the
// expiry is guaranteed mid-execution, not a timing race; the "healthy
// worker" is the test itself, draining the queue by hand.
func TestDroppedHeartbeatsExpireLiveWorker(t *testing.T) {
	cells := testCells(t, 3)
	for i := range cells {
		cells[i].Config.DurationSeconds = 600 // hundreds of ms per cell
	}
	sink := newTestSink()
	c := NewCoordinator(sink, Options{
		LeaseTTL:   50 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
		MaxBatch:   1, // single-cell leases: expiry lands mid-cell, always
	})
	defer c.Stop()
	c.Submit(cells)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deaf := &Worker{
		Queue: c, Name: "deaf", Poll: 5 * time.Millisecond,
		Chaos: &Chaos{DropRenewal: func(string, int) bool { return true }},
	}
	deafDone := make(chan struct{})
	go func() {
		defer close(deafDone)
		deaf.Run(ctx)
	}()

	// Wait until the sweeper has reclaimed at least one of the deaf
	// worker's leases, then shut it down.
	expireBy := time.Now().Add(120 * time.Second)
	for c.Status().ExpiredLeases == 0 {
		if time.Now().After(expireBy) {
			t.Fatalf("dropped heartbeats never expired a lease: %+v", c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-deafDone

	// Let the sweeper reclaim every lease the deaf worker abandoned,
	// then freeze the clock: the hand-driven drain below must not lose
	// its own leases to the same 50ms TTL while executing slow cells.
	reclaimBy := time.Now().Add(120 * time.Second)
	for len(c.Status().Leases) != 0 {
		if time.Now().After(reclaimBy) {
			t.Fatalf("deaf worker's leases never reclaimed: %+v", c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	frozen := time.Now()
	c.SetClock(func() time.Time { return frozen })

	// Drain what is left by hand, acting as the healthy replacement
	// worker.
	pool := caem.NewSimPool()
	drainBy := time.Now().Add(120 * time.Second)
	for {
		if d, f := sink.counts(); d+f >= len(cells) {
			break
		}
		if time.Now().After(drainBy) {
			t.Fatalf("queue never drained: %+v", c.Status())
		}
		lease, err := c.Claim("healthy", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var results []CellResult
		for _, cell := range lease.Cells {
			res, err := pool.RunScenario(cell.Scenario, cell.Config)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
		}
		if err := c.Complete(lease.ID, results); err != nil && !errors.Is(err, ErrLeaseGone) {
			t.Fatal(err)
		}
	}

	committed(c)
	done, failed := sink.counts()
	if done != len(cells) || failed != 0 {
		t.Fatalf("settled %d/%d, want %d/0", done, failed, len(cells))
	}
	st := c.Status()
	if st.ExpiredLeases == 0 || st.Settled != len(cells) {
		t.Fatalf("expiry bookkeeping off: %+v", st)
	}
	sink.mu.Lock()
	over := 0
	for _, n := range sink.started {
		if n > 1 {
			over++
		}
	}
	sink.mu.Unlock()
	if over == 0 {
		t.Fatal("no cell was ever handed out twice — expiry re-queue untested")
	}
}

// TestGracefulReleaseReturnsCells: cancelling a worker mid-lease
// releases the unfinished cells immediately — no expiry wait, no retry
// penalty — and settles what it already computed.
func TestGracefulReleaseReturnsCells(t *testing.T) {
	cells := testCells(t, 4)
	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 4})
	defer c.Stop()
	c.Submit(cells)

	// Cancel after the first cell settles locally: FailCell doubles as a
	// progress probe (never failing, only counting).
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	w := &Worker{
		Queue: c, Name: "w", Poll: 5 * time.Millisecond,
		Chaos: &Chaos{FailCell: func(Cell) error {
			ran++
			if ran == 2 {
				cancel()
			}
			return nil
		}},
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker run: %v", err)
	}
	committed(c)

	st := c.Status()
	if len(st.Leases) != 0 {
		t.Fatalf("release left a lease outstanding: %+v", st)
	}
	done, failed := sink.counts()
	if failed != 0 || done == 0 || done == len(cells) {
		t.Fatalf("graceful release settled %d/%d cells, want partial progress and zero failures (status %+v)",
			done, failed, st)
	}
	if st.Queue+st.Delayed != len(cells)-done {
		t.Fatalf("unfinished cells not re-queued: %+v with %d done", st, done)
	}
}

// TestIdleWorkerWakesOnSubmitAndRequeue: an idle in-process worker
// waits on the coordinator, not out its poll interval (an hour here). A
// requeue wakes it — another worker's Release of cells it never ran —
// and so does a Submit.
func TestIdleWorkerWakesOnSubmitAndRequeue(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 2})
	defer c.Stop()
	cells := testCells(t, 3)
	c.Submit(cells[:1])
	held, err := c.Claim("other", 1)
	if err != nil || held == nil {
		t.Fatalf("claim by another worker: %v, %v", held != nil, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&Worker{Queue: c, Name: "idle", Poll: time.Hour}).Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	// waitIdle waits until the worker has claimed, found nothing and
	// waits on the coordinator.
	waitIdle := func() {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			idle := c.ready != nil
			c.mu.Unlock()
			if idle {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the worker never went idle")
			}
		}
	}
	waitIdle()
	if err := c.Release(held.ID, nil); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, sink, 1)
	waitIdle()
	c.Submit(cells[1:])
	waitSettled(t, sink, 3)
}

// httpStatus reads the coordinator's status over /v1/cluster/status.
func httpStatus(t *testing.T, base string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPQueueRoundTrip: the full lease protocol over real HTTP —
// Remote against RegisterHTTPObserved — including 204 no-work, 410
// lease-gone, and /v1/cluster/status.
func TestHTTPQueueRoundTrip(t *testing.T) {
	cells := testCells(t, 4)
	want := referenceResults(t, cells)

	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: 2 * time.Second, MaxBatch: 2})
	defer c.Stop()
	mux := http.NewServeMux()
	c.RegisterHTTPObserved(mux, obs.NewRegistry())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	remote := &Remote{Base: ts.URL}

	c.Submit(cells)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{Queue: remote, Name: fmt.Sprintf("http-%d", i), Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	waitSettled(t, sink, len(cells))
	cancel()
	wg.Wait()

	sink.mu.Lock()
	for key, ref := range want {
		if got := sink.done[key]; got.TotalConsumedJ != ref.TotalConsumedJ || got.P95DelayMs != ref.P95DelayMs {
			t.Fatalf("HTTP-executed cell %s diverged: %+v vs %+v", key, got, ref)
		}
	}
	sink.mu.Unlock()

	// Empty queue: 204 maps to a nil lease.
	lease, err := remote.Claim("http-0", 0)
	if err != nil || lease != nil {
		t.Fatalf("claim on empty queue = %v, %v; want nil, nil", lease, err)
	}
	// Unknown lease: 410 maps to ErrLeaseGone on every settle verb.
	if err := remote.Renew("lease-999"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("renew unknown = %v, want ErrLeaseGone", err)
	}
	if err := remote.Complete("lease-999", nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("complete unknown = %v, want ErrLeaseGone", err)
	}
	if err := remote.Release("lease-999", nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("release unknown = %v, want ErrLeaseGone", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := httpStatus(t, ts.URL); st.Queue != 0 || st.Delayed != 0 || len(st.Leases) != 0; st = httpStatus(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator not idle after 5s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	committed(c)
	st := c.Status()
	if st.Settled != len(cells) || len(st.Workers) < 2 {
		t.Fatalf("status after HTTP run = %+v", st)
	}
}
