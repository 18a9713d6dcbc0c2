package cluster

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/caem"
)

// batchSink is testSink with the BatchSink extension. Each CellsDone
// call is counted and then stores its cells one by one through
// testSink.CellDone, so putErr still injects per-cell faults. When
// entered is non-nil, CellsDone first signals it and then waits for
// release to close: a store write held in flight.
type batchSink struct {
	*testSink
	calls   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (s *batchSink) CellsDone(cells []Cell, results []*caem.Result) []error {
	s.calls.Add(1)
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
	}
	errs := make([]error, len(cells))
	for i, c := range cells {
		errs[i] = s.CellDone(c, results[i])
	}
	return errs
}

// sinkKinds runs a test against both settlement write paths: a plain
// Sink gets one CellDone per cell, a BatchSink one CellsDone per lease.
var sinkKinds = []struct {
	name string
	wrap func(*testSink) Sink
}{
	{"per-cell", func(s *testSink) Sink { return s }},
	{"batch", func(s *testSink) Sink { return &batchSink{testSink: s} }},
}

// committed waits until every settlement c has accepted is written and
// published: the barrier between a Complete, which returns once its
// settlement is accepted, and assertions about the sink or the settled
// counts.
func committed(c *Coordinator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 || c.writing {
		c.written.Wait()
	}
}

// blockedSettle is a lease completion whose store write is in flight:
// the sink's CellsDone has been entered and waits for unblock.
type blockedSettle struct {
	c       *Coordinator
	sink    *batchSink
	lease   *Lease
	journal string // the journal's epoch file
	unblock func()
}

// startBlockedSettle submits n ≥ 4 cells to a journaled coordinator, has
// worker w1 claim a lease of two and complete it, and returns once that
// completion's store write has started. Complete itself must return
// without waiting for the write. putErr, when non-nil, is the sink's
// injected per-cell write fault.
func startBlockedSettle(t *testing.T, n int, putErr func(Cell) error) *blockedSettle {
	t.Helper()
	dir := t.TempDir()
	j, st := mustOpenJournal(t, dir)
	t.Cleanup(func() { j.Close() })
	if err := j.Begin(1, st); err != nil {
		t.Fatal(err)
	}
	sink := &batchSink{testSink: newTestSink(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	sink.putErr = putErr
	c := NewCoordinator(sink, Options{Journal: j, LeaseTTL: time.Hour, MaxBatch: 2, MaxAttempts: 1})
	t.Cleanup(c.Stop)
	c.Submit(testCells(t, n))

	l, err := c.Claim("w1", 2)
	if err != nil || l == nil || len(l.Cells) != 2 {
		t.Fatalf("claim: %v, %v; want a lease of two cells", l != nil, err)
	}
	var once sync.Once
	b := &blockedSettle{
		c: c, sink: sink, lease: l,
		journal: filepath.Join(dir, "epoch-1.jsonl"),
		unblock: func() { once.Do(func() { close(sink.release) }) },
	}
	t.Cleanup(b.unblock)
	returnsPromptly(t, "Complete", func() {
		if err := c.Complete(l.ID, handResults(t, l)); err != nil {
			t.Errorf("complete: %v", err)
		}
	})
	select {
	case <-sink.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the settlement never reached CellsDone")
	}
	return b
}

// handResults completes every cell of a lease with its reference result.
func handResults(t *testing.T, l *Lease) []CellResult {
	t.Helper()
	want := referenceResults(t, l.Cells)
	rs := make([]CellResult, 0, len(l.Cells))
	for _, cell := range l.Cells {
		res := want[cell.Key()]
		rs = append(rs, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
	}
	return rs
}

// finish unblocks the store write and waits until it is published.
func (b *blockedSettle) finish(t *testing.T) {
	t.Helper()
	b.unblock()
	returnsPromptly(t, "the settlement's publication", func() { committed(b.c) })
}

// journalAppends counts the records appended to the journal after its
// opening snapshot, by type.
func (b *blockedSettle) journalAppends(t *testing.T) map[string]int {
	t.Helper()
	blob, err := os.ReadFile(b.journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	ops := make(map[string]int)
	for _, line := range lines[1:] {
		var rec struct{ T string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		ops[rec.T]++
	}
	return ops
}

// returnsPromptly fails the test if f does not return while a store
// write is held in flight.
func returnsPromptly(t *testing.T, what string, f func()) {
	t.Helper()
	ret := make(chan struct{})
	go func() {
		f()
		close(ret)
	}()
	select {
	case <-ret:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s waited for a store write", what)
	}
}

// TestSettleWriteRunsOutsideLock: a settlement's store write runs
// outside the coordinator lock and off the completer's path. Complete
// returns while the write blocks; meanwhile another worker's Claim and
// Renew and a Status call return, and a Submit of a settling key does
// not queue it again. The store write is the settlement's only durable
// record: neither the grants nor the fault-free settle append anything
// to the journal.
func TestSettleWriteRunsOutsideLock(t *testing.T) {
	b := startBlockedSettle(t, 6, nil)
	c := b.c

	var other *Lease
	returnsPromptly(t, "Claim", func() {
		var err error
		if other, err = c.Claim("w2", 2); err != nil || other == nil {
			t.Errorf("claim while a write is in flight: %+v, %v", other, err)
		}
	})
	if other == nil {
		t.FailNow()
	}
	returnsPromptly(t, "Renew", func() {
		if err := c.Renew(other.ID); err != nil {
			t.Errorf("renew while a write is in flight: %v", err)
		}
	})
	var st Status
	returnsPromptly(t, "Status", func() { st = c.Status() })
	if len(st.Leases) != 1 || st.Settled != 0 {
		t.Fatalf("status while settling = %+v, want one lease and nothing settled", st)
	}
	queued := st.Queue

	// A re-plan that resubmits the settling cells must not queue them.
	returnsPromptly(t, "Submit", func() { c.Submit(b.lease.Cells) })
	if st := c.Status(); st.Queue != queued {
		t.Fatalf("queue = %d after resubmitting settling cells, want %d", st.Queue, queued)
	}
	if ops := b.journalAppends(t); len(ops) != 0 {
		t.Fatalf("journal records %v before the store write returned, want none", ops)
	}

	b.finish(t)
	if ops := b.journalAppends(t); len(ops) != 0 {
		t.Fatalf("a fault-free settle appended journal records %v, want none", ops)
	}
	if done, _ := b.sink.counts(); done != 2 {
		t.Fatalf("sink stored %d cells, want 2", done)
	}
	if st := c.Status(); st.Settled != 2 || st.Queue != queued {
		t.Fatalf("status after settle = %+v, want 2 settled and %d queued", st, queued)
	}
	if n := b.sink.calls.Load(); n != 1 {
		t.Fatalf("CellsDone ran %d times for one lease, want 1", n)
	}
}

// TestFenceDuringSettleWrite: a coordinator deposed while a settlement's
// store write runs publishes nothing once the write returns. Its
// successor may already be replaying the journal, so the deposed leader
// appends no retry or poison record and reports no poison to the sink;
// the successor's re-plan restores whatever reached the store. The
// settlement was acknowledged when it was accepted, so the worker hears
// of the fence from its next call.
func TestFenceDuringSettleWrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		putErr func(Cell) error
	}{
		{"write succeeds", nil},
		// MaxAttempts is 1, so an unfenced coordinator would poison.
		{"write fails", func(Cell) error { return errors.New("store write fault") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := startBlockedSettle(t, 4, tc.putErr)
			next, err := b.c.Claim("w2", 2)
			if err != nil || next == nil {
				t.Fatalf("second claim: %+v, %v", next, err)
			}
			b.c.Fence()
			b.finish(t)
			if err := b.c.Complete(next.ID, handResults(t, next)); !errors.Is(err, ErrFenced) {
				t.Fatalf("complete after the fenced write = %v, want ErrFenced", err)
			}
			for _, op := range []string{"retry", "poison"} {
				if n := b.journalAppends(t)[op]; n != 0 {
					t.Fatalf("deposed coordinator journaled %d %s records", n, op)
				}
			}
			if _, failed := b.sink.counts(); failed != 0 {
				t.Fatalf("deposed coordinator reported %d poisoned cells", failed)
			}
			if n := b.c.met.cellsSettled.Value(); n != 0 {
				t.Fatalf("deposed coordinator published %v settled cells", n)
			}
			b.c.mu.Lock()
			defer b.c.mu.Unlock()
			if len(b.c.settling) != 0 || len(b.c.settled) != 0 {
				t.Fatalf("deposed coordinator kept %d settling and %d settled keys",
					len(b.c.settling), len(b.c.settled))
			}
		})
	}
}
