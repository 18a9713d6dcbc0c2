package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
)

// countingSink wraps testSink to count CellFailed deliveries — the map
// in testSink dedups by key, which hides re-deliveries.
type countingSink struct {
	*testSink
	failedN atomic.Int64
}

func (s *countingSink) CellFailed(c Cell, attempts int, err error) {
	s.failedN.Add(1)
	s.testSink.CellFailed(c, attempts, err)
}

// TestCoordinatorFencing: leases carry the coordinator's epoch;
// operations with a dead epoch's lease are rejected with ErrFenced,
// and a Fence()d coordinator rejects everything.
func TestCoordinatorFencing(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{Epoch: 2, LeaseTTL: time.Minute})
	defer c.Stop()
	c.Submit(testCells(t, 4))

	lease, err := c.Claim("w1", 0)
	if err != nil || lease == nil {
		t.Fatalf("Claim: %v, %v", lease, err)
	}
	if lease.Epoch != 2 || !strings.HasPrefix(lease.ID, "lease-2-") {
		t.Fatalf("lease %q epoch %d, want epoch 2 embedded", lease.ID, lease.Epoch)
	}
	// A lease granted by the dead epoch-1 coordinator is fenced on every
	// verb, not answered with a plain "gone".
	for _, op := range []func() error{
		func() error { return c.Renew("lease-1-7") },
		func() error { return c.Complete("lease-1-7", nil) },
		func() error { return c.Release("lease-1-7", nil) },
	} {
		if err := op(); !errors.Is(err, ErrFenced) {
			t.Fatalf("dead-epoch lease op = %v, want ErrFenced", err)
		}
	}
	// An unknown lease of the *current* epoch is still just gone.
	if err := c.Renew("lease-2-999"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("unknown current-epoch lease = %v, want ErrLeaseGone", err)
	}

	// Deposed: everything fences, including the worker's own live lease.
	c.Fence()
	if _, err := c.Claim("w1", 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("Claim on fenced coordinator = %v, want ErrFenced", err)
	}
	if err := c.Renew(lease.ID); !errors.Is(err, ErrFenced) {
		t.Fatalf("Renew on fenced coordinator = %v, want ErrFenced", err)
	}
	if got := c.met.fenced.Value(); got < 5 {
		t.Fatalf("fenced counter = %v, want >= 5", got)
	}
	if st := c.Status(); st.Epoch != 2 {
		t.Fatalf("Status.Epoch = %d, want 2", st.Epoch)
	}
}

// TestDrainClaimUnavailable: a draining coordinator answers claims
// with 503 + Retry-After over HTTP, which the Remote surfaces as
// *UnavailableError with the parsed hint.
func TestDrainClaimUnavailable(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: 2 * time.Second})
	defer c.Stop()
	mux := http.NewServeMux()
	c.RegisterHTTPObserved(mux, obs.NewRegistry())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c.Drain()
	resp, err := http.Post(ts.URL+"/v1/leases/claim", "application/json",
		strings.NewReader(claimBody("w1", caem.ModelVersion, runtime.GOARCH)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("claim during drain = %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q (the lease TTL)", ra, "2")
	}
	var body struct {
		Error api.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != api.CodeUnavailable {
		t.Fatalf("error code = %q, want %q", body.Error.Code, api.CodeUnavailable)
	}

	r := &Remote{Base: ts.URL}
	_, cerr := r.Claim("w1", 0)
	var ua *UnavailableError
	if !errors.As(cerr, &ua) || ua.RetryAfter != 2*time.Second {
		t.Fatalf("Remote claim during drain = %v, want UnavailableError{2s}", cerr)
	}
}

// TestFencedOverHTTP: a fenced settle maps to 410 with the "fenced"
// envelope code, which the Remote distinguishes from a gone lease.
func TestFencedOverHTTP(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{Epoch: 3, LeaseTTL: time.Minute})
	defer c.Stop()
	mux := http.NewServeMux()
	c.RegisterHTTPObserved(mux, obs.NewRegistry())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := &Remote{Base: ts.URL}
	if err := r.Renew("lease-1-4"); !errors.Is(err, ErrFenced) {
		t.Fatalf("Remote renew of dead-epoch lease = %v, want ErrFenced", err)
	}
	if err := r.Renew("lease-3-99"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("Remote renew of unknown lease = %v, want ErrLeaseGone", err)
	}
}

// TestJournalFailoverRoundTrip is the tentpole in miniature, without
// HTTP: a journaled coordinator settles some cells, retries a failing
// one, and "dies" with a lease outstanding. A successor restores the
// journal's attempt counts, is given the cells missing from the first
// sink (as caem-serve's re-plan submits the cells missing from the
// store), and finishes the campaign with byte-identical results. The
// failing cell's attempt count carries into epoch 2, where it is
// poisoned at MaxAttempts, and the poison carries into epoch 3. Both
// settlement write paths: per-cell CellDone and a BatchSink's
// CellsDone.
func TestJournalFailoverRoundTrip(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run(kind.name, func(t *testing.T) { testJournalFailoverRoundTrip(t, kind.wrap) })
	}
}

func testJournalFailoverRoundTrip(t *testing.T, wrap func(*testSink) Sink) {
	dir := t.TempDir()
	cells := testCells(t, 6)
	want := referenceResults(t, cells)
	failing := cells[5].Key() // every attempt at it fails
	complete := func(c *Coordinator, lease *Lease) {
		t.Helper()
		var rs []CellResult
		for _, cell := range lease.Cells {
			r := CellResult{Campaign: cell.Campaign, Index: cell.Index}
			if cell.Key() == failing {
				r.Error = "boom"
			} else {
				res, err := caem.NewSimPool().RunScenario(cell.Scenario, cell.Config)
				if err != nil {
					t.Fatal(err)
				}
				r.Result = &res
			}
			rs = append(rs, r)
		}
		if err := c.Complete(lease.ID, rs); err != nil {
			t.Fatal(err)
		}
		committed(c)
	}
	opts := func(epoch int64, j *journal.Journal) Options {
		return Options{Epoch: epoch, Journal: j, LeaseTTL: time.Minute, MaxAttempts: 2}
	}

	j, st := mustOpenJournal(t, dir)
	if err := j.Begin(1, st); err != nil {
		t.Fatal(err)
	}
	sink1 := newTestSink()
	c1 := NewCoordinator(wrap(sink1), opts(1, j))
	c1.Submit(cells)

	// With a single worker the leases are three cells, then two, then the
	// failing one. The first settles, the second is claimed but never
	// settled (the coordinator "dies" with it outstanding), and the third
	// fails once.
	lease1, err := c1.Claim("w1", 3)
	if err != nil || lease1 == nil || len(lease1.Cells) != 3 {
		t.Fatalf("first claim: %+v, %v", lease1, err)
	}
	complete(c1, lease1)
	lease2, err := c1.Claim("w1", 2)
	if err != nil || lease2 == nil || len(lease2.Cells) != 2 {
		t.Fatalf("second claim: %+v, %v", lease2, err)
	}
	lease3, err := c1.Claim("w1", 1)
	if err != nil || lease3 == nil || lease3.Cells[0].Key() != failing {
		t.Fatalf("third claim: %+v, %v; want the failing cell", lease3, err)
	}
	complete(c1, lease3)
	// Crash: no Release, no Complete. The journal and sink1 (the store)
	// are all that survive.
	c1.Stop()
	j.Close()

	j2, st2 := mustOpenJournal(t, dir)
	defer j2.Close()
	if err := j2.Begin(2, st2); err != nil {
		t.Fatal(err)
	}
	if n := st2.Attempts[failing]; n != 1 {
		t.Fatalf("journal replayed %d attempts for %s, want 1", n, failing)
	}
	sink2 := newTestSink()
	c2 := NewCoordinator(wrap(sink2), opts(2, j2))
	defer c2.Stop()
	if err := c2.Restore(st2, nil); err != nil {
		t.Fatal(err)
	}
	var missing []Cell
	for _, cell := range cells {
		if _, ok := sink1.done[cell.Key()]; !ok {
			missing = append(missing, cell)
		}
	}
	c2.Submit(missing)
	if st := c2.Status(); st.Epoch != 2 || st.Queue != 3 {
		t.Fatalf("re-planned status = epoch %d queue %d, want epoch 2 queue 3", st.Epoch, st.Queue)
	}
	// An epoch-1 lease arriving at the successor is fenced.
	if err := c2.Renew(lease2.ID); !errors.Is(err, ErrFenced) {
		t.Fatalf("old lease at successor = %v, want ErrFenced", err)
	}
	// Finish the campaign at epoch 2.
	for {
		lease, err := c2.Claim("w2", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			break
		}
		complete(c2, lease)
	}
	// The failing cell failed once per epoch: its second attempt, the
	// first at epoch 2, spent the budget.
	if st := c2.Status(); len(st.Poisoned) != 1 || st.Poisoned[0].Index != cells[5].Index || st.Poisoned[0].Attempts != 2 {
		t.Fatalf("poisoned = %+v, want %s poisoned at attempt 2", st.Poisoned, failing)
	}
	if _, ok := sink2.failed[failing]; !ok {
		t.Fatalf("%s was not reported failed at epoch 2", failing)
	}
	// Epoch 3 restores the poison: resubmitting the cell, as the re-plan
	// does while its result is missing from the store, reports it failed
	// instead of queueing it.
	c2.Stop()
	j2.Close()
	j3, st3 := mustOpenJournal(t, dir)
	defer j3.Close()
	if err := j3.Begin(3, st3); err != nil {
		t.Fatal(err)
	}
	sink3 := newTestSink()
	c3 := NewCoordinator(wrap(sink3), opts(3, j3))
	defer c3.Stop()
	if err := c3.Restore(st3, nil); err != nil {
		t.Fatal(err)
	}
	c3.Submit(cells[5:])
	if st := c3.Status(); st.Queue != 0 || len(st.Poisoned) != 1 {
		t.Fatalf("epoch 3 status = queue %d, poisoned %+v; want the poison restored, nothing queued", st.Queue, st.Poisoned)
	}
	if _, ok := sink3.failed[failing]; !ok {
		t.Fatalf("%s was not reported failed at epoch 3", failing)
	}
	// Every other cell settled once, with byte-identical results across
	// the failover.
	for _, cell := range cells[:5] {
		key := cell.Key()
		got, ok := sink1.done[key]
		if !ok {
			got, ok = sink2.done[key]
		}
		if !ok {
			t.Fatalf("cell %s never settled", key)
		}
		if !reflect.DeepEqual(got, want[key]) {
			t.Fatalf("cell %s result diverged across failover", key)
		}
	}
}

// TestSubmitReconciliation: re-submitting never double-queues, a
// poisoned cell is re-reported to the sink instead of queued, and a
// settled cell is not queued again.
func TestSubmitReconciliation(t *testing.T) {
	cells := testCells(t, 3)
	sink := &countingSink{testSink: newTestSink()}
	c := NewCoordinator(sink, Options{LeaseTTL: time.Minute, MaxAttempts: 1})
	defer c.Stop()

	c.Submit(cells)
	if st := c.Status(); st.Queue != 3 {
		t.Fatalf("queue = %d, want 3", st.Queue)
	}
	c.Submit(cells) // replay: everything already queued
	if st := c.Status(); st.Queue != 3 {
		t.Fatalf("queue after duplicate submit = %d, want 3", st.Queue)
	}

	// Poison cells[0] (MaxAttempts 1: first failure is terminal), settle
	// cells[1] normally, leave cells[2] queued.
	lease, err := c.Claim("w1", 3)
	if err != nil || len(lease.Cells) != 2 {
		t.Fatalf("claim: %+v, %v", lease, err)
	}
	res := referenceResults(t, cells[1:2])[cells[1].Key()]
	if err := c.Complete(lease.ID, []CellResult{
		{Campaign: cells[0].Campaign, Index: cells[0].Index, Error: "boom"},
		{Campaign: cells[1].Campaign, Index: cells[1].Index, Result: &res},
	}); err != nil {
		t.Fatal(err)
	}
	committed(c)
	if n := sink.failedN.Load(); n != 1 {
		t.Fatalf("CellFailed deliveries = %d, want 1", n)
	}

	// A re-plan resubmits the poisoned cell (its result is absent from
	// the store): the poison is re-delivered, not re-queued.
	c.Submit(cells[:1])
	if n := sink.failedN.Load(); n != 2 {
		t.Fatalf("CellFailed deliveries after resubmit = %d, want 2", n)
	}
	if st := c.Status(); st.Queue != 1 {
		t.Fatalf("queue = %d, want 1 (poisoned cell must not re-queue)", st.Queue)
	}

	// The settled cell's result is in the store; resubmitting it queues
	// nothing.
	c.Submit(cells[1:2])
	if st := c.Status(); st.Queue != 1 {
		t.Fatalf("queue = %d, want 1 (settled cell must not re-queue)", st.Queue)
	}
}

// TestClaimBackoff: deterministic, exponential, capped by the lease
// TTL, and deferent to an explicit Retry-After hint.
func TestClaimBackoff(t *testing.T) {
	w := &Worker{Name: "w1"}
	poll := 200 * time.Millisecond
	ttl := time.Second
	prev := time.Duration(0)
	for n := 1; n <= 10; n++ {
		d := w.claimBackoff(n, ttl, errors.New("connection refused"), poll)
		if d != w.claimBackoff(n, ttl, errors.New("connection refused"), poll) {
			t.Fatalf("claimBackoff(%d) is not deterministic", n)
		}
		if d > ttl {
			t.Fatalf("claimBackoff(%d) = %v exceeds the lease TTL %v", n, d, ttl)
		}
		if d < prev && d != ttl {
			t.Fatalf("claimBackoff(%d) = %v shrank below attempt %d's %v before hitting the cap", n, d, n-1, prev)
		}
		prev = d
	}
	// With no observed TTL the cap is the 15s default, never exceeded.
	if d := w.claimBackoff(10, 0, errors.New("x"), poll); d > 15*time.Second {
		t.Fatalf("uncapped backoff = %v, want <= 15s", d)
	}
	// An Unavailable hint is honored under the cap.
	if d := w.claimBackoff(1, ttl, &UnavailableError{RetryAfter: 500 * time.Millisecond}, poll); d != 500*time.Millisecond {
		t.Fatalf("hinted backoff = %v, want 500ms", d)
	}
	if d := w.claimBackoff(1, ttl, &UnavailableError{RetryAfter: 30 * time.Second}, poll); d != ttl {
		t.Fatalf("hinted backoff = %v, want capped at %v", d, ttl)
	}
}

// TestRemoteFailoverRotation: a Remote with multiple bases rotates off
// a member that answers fenced/503 and converges on the leader; a
// leader document re-targets it directly.
func TestRemoteFailoverRotation(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{Epoch: 2, LeaseTTL: time.Minute})
	defer c.Stop()
	c.Submit(testCells(t, 2))
	leaderMux := http.NewServeMux()
	c.RegisterHTTPObserved(leaderMux, obs.NewRegistry())
	leader := httptest.NewServer(leaderMux)
	defer leader.Close()

	// A deposed member: fences every lease verb, but still knows who
	// leads.
	deposedMux := http.NewServeMux()
	deposedMux.HandleFunc("POST /v1/leases/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusGone, api.CodeFenced, ErrFenced.Error(), nil)
	})
	deposedMux.HandleFunc("GET /v1/cluster/leader", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(LeaderInfo{LeaderURL: leader.URL, Epoch: 2, Role: "standby"})
	})
	deposed := httptest.NewServer(deposedMux)
	defer deposed.Close()

	r := &Remote{Bases: []string{deposed.URL, leader.URL}}
	if _, err := r.Claim("w1", 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("claim at deposed member = %v, want ErrFenced", err)
	}
	// The fenced response rotated the Remote; the retry lands on the
	// leader.
	lease, err := r.Claim("w1", 0)
	if err != nil || lease == nil || lease.Epoch != 2 {
		t.Fatalf("claim after rotation = %+v, %v", lease, err)
	}
	if err := r.Release(lease.ID, nil); err != nil {
		t.Fatal(err)
	}

	// ResolveLeader re-targets directly instead of probing in order.
	r2 := &Remote{Bases: []string{deposed.URL, leader.URL}}
	info, err := r2.ResolveLeader()
	if err != nil || info.LeaderURL != leader.URL {
		t.Fatalf("ResolveLeader = %+v, %v", info, err)
	}
	if got := r2.base(); got != leader.URL {
		t.Fatalf("Remote targets %q after ResolveLeader, want %q", got, leader.URL)
	}

	// A worker that only knows the deposed member still converges: the
	// advertised leader URL is adopted even though it was never in the
	// configured bases.
	r3 := &Remote{Bases: []string{deposed.URL}}
	info, err = r3.ResolveLeader()
	if err != nil || info.LeaderURL != leader.URL {
		t.Fatalf("ResolveLeader from deposed-only bases = %+v, %v", info, err)
	}
	if got := r3.base(); got != leader.URL {
		t.Fatalf("Remote targets %q after adopting the advertised leader, want %q", got, leader.URL)
	}
	if lease, err := r3.Claim("w2", 0); err != nil || lease == nil {
		t.Fatalf("claim via adopted leader URL = %+v, %v", lease, err)
	}
}

// TestGuardFencesZombieSettle: the write-time leadership guard. A
// coordinator whose renew loop has not yet noticed deposition (the
// SIGSTOP-then-resume zombie) is fenced synchronously at the first
// grant or settle after a successor takes the lock — its stale results
// never reach the sink.
func TestGuardFencesZombieSettle(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "leader.lock")
	lock := lockAt(path, "primary", clk)
	epoch, err := lock.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}

	sink := newTestSink()
	c := NewCoordinator(sink, Options{
		Epoch:    epoch,
		LeaseTTL: time.Minute,
		Guard:    func() error { return lock.Verify(epoch) },
	})
	defer c.Stop()
	cells := testCells(t, 4)
	want := referenceResults(t, cells)
	c.Submit(cells)

	// While we hold the lock, the guard is invisible: claims and settles
	// proceed.
	lease1, err := c.Claim("w1", 2)
	if err != nil || lease1 == nil {
		t.Fatalf("claim while leading: %+v, %v", lease1, err)
	}
	var rs []CellResult
	for _, cell := range lease1.Cells {
		res := want[cell.Key()]
		rs = append(rs, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
	}
	if err := c.Complete(lease1.ID, rs); err != nil {
		t.Fatalf("complete while leading: %v", err)
	}
	committed(c)
	lease2, err := c.Claim("w1", 2)
	if err != nil || lease2 == nil {
		t.Fatalf("second claim: %+v, %v", lease2, err)
	}

	// The coordinator stalls past its TTL; a standby takes the lock. The
	// renew loop hasn't run — only the guard stands between the zombie's
	// in-flight settle and the store.
	clk.advance(1100 * time.Millisecond)
	standby := lockAt(path, "standby", clk)
	if _, err := standby.TryAcquire(); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(lease2.ID, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie settle = %v, want ErrFenced", err)
	}
	if _, err := c.Claim("w1", 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie claim = %v, want ErrFenced", err)
	}
	// Only the pre-takeover batch reached the sink.
	sink.mu.Lock()
	n := len(sink.done)
	sink.mu.Unlock()
	if n != len(lease1.Cells) {
		t.Fatalf("sink has %d cells, want %d (zombie writes must not land)", n, len(lease1.Cells))
	}
}

func mustOpenJournal(t *testing.T, dir string) (*journal.Journal, journal.State) {
	t.Helper()
	j, st, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, st
}
