package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/caem"
)

// recordingSink is a BatchSink that records every callback in the order
// it arrives ("done <key>" and "failed <key>") and the cell keys of each
// CellsDone call. hold, when non-nil, runs at the start of each CellsDone
// call with the call's 1-based number: a write held in flight.
type recordingSink struct {
	hold func(call int)

	mu     sync.Mutex
	calls  int
	events []string
	writes [][]string
}

func (s *recordingSink) CellStarted(Cell) {}

func (s *recordingSink) CellDone(c Cell, res *caem.Result) error {
	return s.CellsDone([]Cell{c}, []*caem.Result{res})[0]
}

func (s *recordingSink) CellsDone(cells []Cell, _ []*caem.Result) []error {
	s.mu.Lock()
	s.calls++
	call := s.calls
	s.mu.Unlock()
	if s.hold != nil {
		s.hold(call)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
		s.events = append(s.events, "done "+c.Key())
	}
	s.writes = append(s.writes, keys)
	return make([]error, len(cells))
}

func (s *recordingSink) CellFailed(c Cell, _ int, _ error) {
	s.mu.Lock()
	s.events = append(s.events, "failed "+c.Key())
	s.mu.Unlock()
}

// snapshot returns copies of the recorded events and writes.
func (s *recordingSink) snapshot() (events []string, writes [][]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.events...), append([][]string(nil), s.writes...)
}

// holdWrite returns a hold hook that blocks write number n until the
// returned release is called, and a channel that receives once write n
// has started.
func holdWrite(n int) (hold func(int), entered chan struct{}, release func()) {
	entered = make(chan struct{}, 1)
	open := make(chan struct{})
	var once sync.Once
	hold = func(call int) {
		if call == n {
			entered <- struct{}{}
			<-open
		}
	}
	return hold, entered, func() { once.Do(func() { close(open) }) }
}

// awaitWrite waits until a held write has started.
func awaitWrite(t *testing.T, entered chan struct{}) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the held write never started")
	}
}

// outcome completes a lease by hand: a zero Result for each cell, or the
// error for the cells whose key fails names.
func outcome(l *Lease, fails ...string) []CellResult {
	rs := make([]CellResult, len(l.Cells))
	for i, cell := range l.Cells {
		rs[i] = CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &caem.Result{}}
		for _, k := range fails {
			if k == cell.Key() {
				rs[i] = CellResult{Campaign: cell.Campaign, Index: cell.Index, Error: "boom"}
			}
		}
	}
	return rs
}

// keysOf lists the keys of the leases' cells, in order.
func keysOf(ls ...*Lease) []string {
	var keys []string
	for _, l := range ls {
		for _, cell := range l.Cells {
			keys = append(keys, cell.Key())
		}
	}
	return keys
}

// claimN claims a lease of exactly n cells for worker w. Guided
// self-scheduling sizes a lease by the queue, so the tests submit more
// cells than they claim.
func claimN(t *testing.T, c *Coordinator, w string, n int) *Lease {
	t.Helper()
	l, err := c.Claim(w, n)
	if err != nil || l == nil || len(l.Cells) != n {
		got := 0
		if l != nil {
			got = len(l.Cells)
		}
		t.Fatalf("claim %d cells for %s: got %d, %v", n, w, got, err)
	}
	return l
}

// TestGroupCommitCompleteReturnsDuringWrite: Complete acknowledges
// acceptance and returns while the store write is blocked, and the
// completions of two other workers that arrive during that write land
// together in exactly one following CellsDone.
func TestGroupCommitCompleteReturnsDuringWrite(t *testing.T) {
	hold, entered, release := holdWrite(1)
	sink := &recordingSink{hold: hold}
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 2})
	defer c.Stop()
	defer release() // runs first: Stop waits for a held write
	c.Submit(testCells(t, 24))
	l1 := claimN(t, c, "w1", 2)
	l2 := claimN(t, c, "w2", 1)
	l3 := claimN(t, c, "w3", 1)

	returnsPromptly(t, "Complete", func() {
		if err := c.Complete(l1.ID, outcome(l1)); err != nil {
			t.Errorf("complete: %v", err)
		}
	})
	awaitWrite(t, entered)
	for _, l := range []*Lease{l2, l3} {
		returnsPromptly(t, "Complete", func() {
			if err := c.Complete(l.ID, outcome(l)); err != nil {
				t.Errorf("complete: %v", err)
			}
		})
	}
	if st := c.Status(); st.Settled != 0 {
		t.Fatalf("%d cells published while their write was blocked", st.Settled)
	}
	release()
	committed(c)
	_, writes := sink.snapshot()
	if want := [][]string{keysOf(l1), keysOf(l2, l3)}; !reflect.DeepEqual(writes, want) {
		t.Fatalf("writes = %v, want %v", writes, want)
	}
	if st := c.Status(); st.Settled != 4 {
		t.Fatalf("settled = %d after the writes, want 4", st.Settled)
	}
}

// TestGroupCommitCallbackOrder: settlements reach the sink in the order
// they were accepted, each as one unit — its failed cells' callbacks
// (here poisons, at MaxAttempts 1) before its done cells — even when a
// held write lets several pile up.
func TestGroupCommitCallbackOrder(t *testing.T) {
	hold, entered, release := holdWrite(1)
	sink := &recordingSink{hold: hold}
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 2, MaxAttempts: 1})
	defer c.Stop()
	defer release() // runs first: Stop waits for a held write
	c.Submit(testCells(t, 24))
	l1 := claimN(t, c, "w1", 2)
	l2 := claimN(t, c, "w2", 2)
	l3 := claimN(t, c, "w3", 2)
	l4 := claimN(t, c, "w4", 2)

	if err := c.Complete(l1.ID, outcome(l1)); err != nil {
		t.Fatal(err)
	}
	awaitWrite(t, entered)
	for _, step := range []struct {
		l     *Lease
		fails []string
	}{
		{l2, []string{l2.Cells[0].Key()}},
		{l3, nil},
		{l4, keysOf(l4)},
	} {
		if err := c.Complete(step.l.ID, outcome(step.l, step.fails...)); err != nil {
			t.Fatal(err)
		}
	}
	release()
	committed(c)
	events, writes := sink.snapshot()
	var want []string
	for _, k := range keysOf(l1) {
		want = append(want, "done "+k)
	}
	want = append(want, "failed "+l2.Cells[0].Key(), "done "+l2.Cells[1].Key())
	for _, k := range keysOf(l3) {
		want = append(want, "done "+k)
	}
	for _, k := range keysOf(l4) {
		want = append(want, "failed "+k)
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("sink callbacks:\n got %v\nwant %v", events, want)
	}
	if wantW := [][]string{keysOf(l1), {l2.Cells[1].Key(), l3.Cells[0].Key(), l3.Cells[1].Key()}}; !reflect.DeepEqual(writes, wantW) {
		t.Fatalf("writes = %v, want %v", writes, wantW)
	}
	if st := c.Status(); st.Settled != 5 || len(st.Poisoned) != 3 {
		t.Fatalf("status = %d settled, %d poisoned; want 5 and 3", st.Settled, len(st.Poisoned))
	}
}

// TestGroupCommitCompleterHelps: the committer goroutine gets a core only
// when a worker yields one, so a completer that finds the pending queue
// past its bound (helpFactor leases of MaxBatch per worker) and no write
// in flight writes the queue itself before returning. A completer that
// finds a write in flight returns at once, however long the queue.
func TestGroupCommitCompleterHelps(t *testing.T) {
	hold, entered, release := holdWrite(2)
	sink := &recordingSink{hold: hold}
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 2})
	defer c.Stop()
	defer release() // runs first: Stop waits for a held write
	// One worker claims every lease: the bound is helpFactor·2 cells, and
	// per leases of two cells take the queue just past it.
	per := helpFactor + 1
	c.Submit(testCells(t, 2*3*per+2))
	ls := make([]*Lease, 3*per)
	for i := range ls {
		ls[i] = claimN(t, c, "w", 2)
	}
	complete := func(l *Lease) {
		t.Helper()
		if err := c.Complete(l.ID, outcome(l)); err != nil {
			t.Fatal(err)
		}
	}
	written := func() [][]string {
		_, writes := sink.snapshot()
		return writes
	}

	// A committer that has been started but not yet scheduled.
	setCommitter := func(running bool) {
		c.mu.Lock()
		c.committer = running
		c.mu.Unlock()
	}
	setCommitter(true)
	defer setCommitter(false)

	for _, l := range ls[:per-1] {
		complete(l)
	}
	if w := written(); len(w) != 0 {
		t.Fatalf("writes %v within the bound, want none by the completers", w)
	}
	complete(ls[per-1]) // past the bound: this completer writes every pending lease
	if w, want := written(), [][]string{keysOf(ls[:per]...)}; !reflect.DeepEqual(w, want) {
		t.Fatalf("writes after the bound was passed = %v, want %v", w, want)
	}

	// The next helping write is held; completions arriving during it
	// return at once, though they push the queue past the bound again.
	for _, l := range ls[per : 2*per-1] {
		complete(l)
	}
	helped := make(chan struct{})
	go func() {
		defer close(helped)
		complete(ls[2*per-1])
	}()
	awaitWrite(t, entered)
	for _, l := range ls[2*per:] {
		returnsPromptly(t, "Complete during a write", func() { complete(l) })
	}
	setCommitter(false)
	release()
	select {
	case <-helped:
	case <-time.After(30 * time.Second):
		t.Fatal("the helping completer never returned")
	}
	committed(c)
	want := [][]string{keysOf(ls[:per]...), keysOf(ls[per : 2*per]...), keysOf(ls[2*per:]...)}
	if w := written(); !reflect.DeepEqual(w, want) {
		t.Fatalf("writes = %v, want %v", w, want)
	}
	if st := c.Status(); st.Settled != 2*len(ls) {
		t.Fatalf("settled = %d, want %d", st.Settled, 2*len(ls))
	}
}

// TestGroupCommitStopDrains: Stop returns only once every accepted
// settlement is written and published, so a caller may close the store
// right after it; a settlement accepted after Stop is written before its
// Complete returns.
func TestGroupCommitStopDrains(t *testing.T) {
	hold, entered, release := holdWrite(1)
	defer release()
	sink := &recordingSink{hold: hold}
	c := NewCoordinator(sink, Options{LeaseTTL: time.Hour, MaxBatch: 2})
	c.Submit(testCells(t, 24))
	l1 := claimN(t, c, "w1", 2)
	l2 := claimN(t, c, "w2", 2)
	l3 := claimN(t, c, "w3", 2)
	if err := c.Complete(l1.ID, outcome(l1)); err != nil {
		t.Fatal(err)
	}
	awaitWrite(t, entered)
	if err := c.Complete(l2.ID, outcome(l2)); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a settlement's write was held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop never returned")
	}
	if _, w := sink.snapshot(); !reflect.DeepEqual(w, [][]string{keysOf(l1), keysOf(l2)}) {
		t.Fatalf("writes when Stop returned = %v, want both leases", w)
	}
	if st := c.Status(); st.Settled != 4 {
		t.Fatalf("settled = %d when Stop returned, want 4", st.Settled)
	}
	if err := c.Complete(l3.ID, outcome(l3)); err != nil {
		t.Fatal(err)
	}
	if _, w := sink.snapshot(); len(w) != 3 {
		t.Fatalf("a completion after Stop returned before its write: writes %v", w)
	}
}

// TestGroupCommitGuardFencesQueued: the leadership check runs again right
// before each write. A settlement accepted while the coordinator still
// led, but written after a successor took the lock, never reaches the
// sink: the zombie settle never lands, and the next call answers
// ErrFenced.
func TestGroupCommitGuardFencesQueued(t *testing.T) {
	hold, entered, release := holdWrite(1)
	sink := &recordingSink{hold: hold}
	var deposed atomic.Bool
	c := NewCoordinator(sink, Options{
		LeaseTTL: time.Hour, MaxBatch: 2,
		Guard: func() error {
			if deposed.Load() {
				return fmt.Errorf("lock now held by a standby: %w", ErrLockLost)
			}
			return nil
		},
	})
	defer c.Stop()
	defer release() // runs first: Stop waits for a held write
	c.Submit(testCells(t, 24))
	l1 := claimN(t, c, "w1", 2)
	l2 := claimN(t, c, "w2", 2)
	if err := c.Complete(l1.ID, outcome(l1)); err != nil {
		t.Fatal(err)
	}
	awaitWrite(t, entered)
	if err := c.Complete(l2.ID, outcome(l2)); err != nil {
		t.Fatalf("complete while leading: %v", err)
	}
	deposed.Store(true)
	release()
	committed(c)
	if _, w := sink.snapshot(); !reflect.DeepEqual(w, [][]string{keysOf(l1)}) {
		t.Fatalf("writes = %v, want only the lease written before the takeover", w)
	}
	if _, err := c.Claim("w1", 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("claim after the fenced write = %v, want ErrFenced", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.settling) != 0 || len(c.pending) != 0 {
		t.Fatalf("fenced coordinator kept %d settling cells and %d pending settlements", len(c.settling), len(c.pending))
	}
}

// TestGroupCommitGuardInconclusiveRequeues: a leadership check that
// fails without proving deposition (a transient fault reading the lock)
// skips the write, and the group's cells, failed ones included, go back
// on the queue with no retry penalty, as a lease expiry would return
// them.
func TestGroupCommitGuardInconclusiveRequeues(t *testing.T) {
	hold, entered, release := holdWrite(1)
	sink := &recordingSink{hold: hold}
	var flaky atomic.Bool
	c := NewCoordinator(sink, Options{
		LeaseTTL: time.Hour, MaxBatch: 2, MaxAttempts: 1,
		Guard: func() error {
			if flaky.Load() {
				return errors.New("reading the lock file: transient fault")
			}
			return nil
		},
	})
	defer c.Stop()
	defer release() // runs first: Stop waits for a held write
	c.Submit(testCells(t, 24))
	l1 := claimN(t, c, "w1", 2)
	l2 := claimN(t, c, "w2", 2)
	if err := c.Complete(l1.ID, outcome(l1)); err != nil {
		t.Fatal(err)
	}
	awaitWrite(t, entered)
	if err := c.Complete(l2.ID, outcome(l2, l2.Cells[0].Key())); err != nil {
		t.Fatal(err)
	}
	queued := c.Status().Queue
	flaky.Store(true)
	release()
	committed(c)
	events, writes := sink.snapshot()
	if !reflect.DeepEqual(writes, [][]string{keysOf(l1)}) || len(events) != 2 {
		t.Fatalf("writes %v, callbacks %v; want only the first lease's write", writes, events)
	}
	st := c.Status()
	if st.Queue != queued+2 || st.Settled != 2 || len(st.Poisoned) != 0 {
		t.Fatalf("status = %d queued, %d settled, %d poisoned; want %d, 2 and 0", st.Queue, st.Settled, len(st.Poisoned), queued+2)
	}
	if n := c.met.cellsRetried.Value(); n != 0 {
		t.Fatalf("%v retries scheduled for cells whose write was skipped", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fenced || len(c.settling) != 0 {
		t.Fatalf("fenced %v, %d settling cells; want neither", c.fenced, len(c.settling))
	}
}
