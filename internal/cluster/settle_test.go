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

// blockedSettle is a lease completion whose store write is in flight:
// the sink's CellsDone has been entered and waits for unblock.
type blockedSettle struct {
	c       *Coordinator
	sink    *batchSink
	lease   *Lease
	done    chan error // Complete's return value, once unblocked
	journal string     // the journal's epoch file
	unblock func()
}

// startBlockedSettle submits n ≥ 4 cells to a journaled coordinator, has
// worker w1 claim a lease of two and complete it in the background, and
// returns once that completion's store write has started. putErr, when
// non-nil, is the sink's injected per-cell write fault.
func startBlockedSettle(t *testing.T, n int, putErr func(Cell) error) *blockedSettle {
	t.Helper()
	dir := t.TempDir()
	j, st := mustOpenJournal(t, dir)
	t.Cleanup(func() { j.Close() })
	if err := j.Begin(1, st); err != nil {
		t.Fatal(err)
	}
	sink := &batchSink{testSink: newTestSink(), entered: make(chan struct{}), release: make(chan struct{})}
	sink.putErr = putErr
	c := NewCoordinator(sink, Options{Journal: j, LeaseTTL: time.Hour, MaxBatch: 2, MaxAttempts: 1})
	t.Cleanup(c.Stop)
	c.Submit(testCells(t, n))

	l, err := c.Claim("w1", 2)
	if err != nil || l == nil || len(l.Cells) != 2 {
		t.Fatalf("claim: %v, %v; want a lease of two cells", l != nil, err)
	}
	want := referenceResults(t, l.Cells)
	var rs []CellResult
	for _, cell := range l.Cells {
		res := want[cell.Key()]
		rs = append(rs, CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: &res})
	}
	var once sync.Once
	b := &blockedSettle{
		c: c, sink: sink, lease: l,
		done:    make(chan error, 1),
		journal: filepath.Join(dir, "epoch-1.jsonl"),
		unblock: func() { once.Do(func() { close(sink.release) }) },
	}
	t.Cleanup(b.unblock)
	go func() { b.done <- c.Complete(l.ID, rs) }()
	select {
	case <-sink.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the settlement never reached CellsDone")
	}
	return b
}

// finish unblocks the store write and returns Complete's result.
func (b *blockedSettle) finish(t *testing.T) error {
	t.Helper()
	b.unblock()
	select {
	case err := <-b.done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Complete did not return after its store write finished")
		return nil
	}
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
		t.Fatalf("%s waited for another lease's store write", what)
	}
}

// TestSettleWriteRunsOutsideLock: a settlement's store write runs
// outside the coordinator lock. While one lease's CellsDone blocks,
// another worker's Claim and Renew and a Status call return, and a
// Submit of a settling key does not queue it again. The store write is
// the settlement's only durable record: neither the grants nor the
// fault-free settle append anything to the journal.
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

	if err := b.finish(t); err != nil {
		t.Fatalf("complete: %v", err)
	}
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
// the successor's re-plan restores whatever reached the store.
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
			b.c.Fence()
			if err := b.finish(t); !errors.Is(err, ErrFenced) {
				t.Fatalf("complete across a fence = %v, want ErrFenced", err)
			}
			for _, op := range []string{"retry", "poison"} {
				if n := b.journalAppends(t)[op]; n != 0 {
					t.Fatalf("deposed coordinator journaled %d %s records", n, op)
				}
			}
			if _, failed := b.sink.counts(); failed != 0 {
				t.Fatalf("deposed coordinator reported %d poisoned cells", failed)
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
