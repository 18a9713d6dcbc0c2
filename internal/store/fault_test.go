package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestAppendFaultIsTypedAndRecoverable: an injected append error must
// surface as a *WriteError with Op "append", leave the log untouched,
// and the same Put must succeed once the fault clears — the retry path
// the cluster layer leans on for transient store faults.
func TestAppendFaultIsTypedAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutBatch([]Record{rec(0)}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	s.SetFault(func(op string) error {
		if op == "append" {
			return boom
		}
		return nil
	})
	err = s.PutBatch([]Record{rec(1)})
	var we *WriteError
	if !errors.As(err, &we) || we.Op != "append" || !errors.Is(err, boom) {
		t.Fatalf("faulted Put = %v, want *WriteError{Op: append} wrapping cause", err)
	}
	if s.Len() != 1 {
		t.Fatalf("failed append mutated the index: %d cells", s.Len())
	}

	s.SetFault(nil)
	if err := s.PutBatch([]Record{rec(1)}); err != nil {
		t.Fatalf("Put after fault cleared: %v", err)
	}
	got, ok, err := s.Get(rec(1).Key())
	if err != nil || !ok {
		t.Fatalf("Get after recovery = %v, %v", ok, err)
	}
	want := rec(1)
	want.V = recordVersion
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered record differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestSyncFaultThenReopen: a fault between write and fsync means the
// store did not acknowledge the write (typed error, nothing indexed —
// for a batch, no record of it), yet the bytes may have reached the log
// — like a crash where the kernel flushed anyway. Reopen must absorb
// the orphan lines cleanly: the records are complete and valid, so the
// scan legitimately adopts them. Putting the same records again then
// appends nothing, but fsyncs once: its nil return is what makes the
// adopted lines acknowledged.
func TestSyncFaultThenReopen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch []Record
	}{
		{"single record", []Record{rec(1)}},
		{"batch", []Record{rec(1), rec(2), rec(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch([]Record{rec(0)}); err != nil {
				t.Fatal(err)
			}
			s.SetFault(func(op string) error {
				if op == "sync" {
					return errors.New("fsync lost power")
				}
				return nil
			})
			err = s.PutBatch(tc.batch)
			var we *WriteError
			if !errors.As(err, &we) || we.Op != "sync" {
				t.Fatalf("sync-faulted PutBatch = %v, want *WriteError{Op: sync}", err)
			}
			for _, r := range tc.batch {
				if s.Has(r.Key()) {
					t.Fatalf("unacknowledged record %d is visible before reopen", r.Seed)
				}
			}
			if st := s.Stats(); st.Distinct != 1 || st.ActiveRecords != 1 {
				t.Fatalf("failed batch was counted: %+v", st)
			}
			s.SetFault(nil)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after sync fault: %v", err)
			}
			defer s2.Close()
			if s2.RecoveredBytes() != 0 {
				t.Fatalf("complete orphan lines reported as torn: %d bytes", s2.RecoveredBytes())
			}
			if !s2.Has(rec(0).Key()) || s2.Len() != 1+len(tc.batch) {
				t.Fatalf("reopen holds %d records, want %d", s2.Len(), 1+len(tc.batch))
			}
			for _, r := range tc.batch {
				if !s2.Has(r.Key()) {
					t.Fatalf("reopen lost orphan record %d", r.Seed)
				}
			}
			log := filepath.Join(dir, dataFile)
			before, err := os.Stat(log)
			if err != nil {
				t.Fatal(err)
			}
			syncs := 0
			s2.SetFault(func(op string) error {
				if op == "sync" {
					syncs++
				}
				return nil
			})
			if err := s2.PutBatch(tc.batch); err != nil {
				t.Fatalf("re-putting the adopted records: %v", err)
			}
			s2.SetFault(nil)
			after, err := os.Stat(log)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() || syncs != 1 {
				t.Fatalf("re-putting the adopted records grew the log from %d to %d bytes with %d fsyncs, want no growth and 1 fsync",
					before.Size(), after.Size(), syncs)
			}
			if err := s2.PutBatch([]Record{rec(9)}); err != nil {
				t.Fatalf("Put on reopened store: %v", err)
			}
		})
	}
}

// TestMidAppendCrashRecovery extends the torn-tail suite: a writer that
// dies mid-append leaves a partial line (no terminating newline, or
// truncated JSON); reopen must drop exactly the torn bytes, keep every
// earlier record, and accept new appends — and a second crash at the
// same spot must recover just as cleanly. A batch torn in the middle of
// a line keeps its prefix of whole lines, and a batch that repeats a
// key counts that key once.
func TestMidAppendCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		whole int // whole lines of the torn batch that reached the log
		dups  int // copies of one record in the batch appended after recovery
	}{
		{"single record", 0, 1},
		{"batch", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := s.PutBatch([]Record{rec(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Simulate dying mid-append twice in a row: each reopen must
			// truncate the torn bytes and leave a log the next writer can
			// extend.
			want := 3
			for crash := 0; crash < 2; crash++ {
				var lines []byte
				for k := 0; k < tc.whole; k++ {
					r := rec(20 + 10*crash + k)
					r.V = recordVersion
					line, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(append(lines, line...), '\n')
				}
				torn := fmt.Sprintf(`{"v":1,"campaign":"test","hash":"deadbeef","scenario":"node-churn","protocol":"p","seed":%d,"summ`, 90+crash)
				f, err := os.OpenFile(filepath.Join(dir, dataFile), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(append(lines, torn...)); err != nil {
					t.Fatal(err)
				}
				f.Close()

				s, err = Open(dir)
				if err != nil {
					t.Fatalf("crash %d: reopen: %v", crash, err)
				}
				if got := s.RecoveredBytes(); got != int64(len(torn)) {
					t.Fatalf("crash %d: recovered %d bytes, want %d", crash, got, len(torn))
				}
				want += tc.whole
				if s.Len() != want {
					t.Fatalf("crash %d: %d cells survive, want %d", crash, s.Len(), want)
				}
				batch := make([]Record, tc.dups)
				for i := range batch {
					batch[i] = rec(10 + crash)
				}
				if err := s.PutBatch(batch); err != nil {
					t.Fatalf("crash %d: append after recovery: %v", crash, err)
				}
				want++
				if got := s.Stats().Distinct; got != want {
					t.Fatalf("crash %d: Distinct = %d after appending %d copies of one key, want %d",
						crash, got, tc.dups, want)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}

			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Len() != want {
				t.Fatalf("final store holds %d cells, want %d", s.Len(), want)
			}
		})
	}
}

// TestBatchAppendsOnlyNewKeys: a batch of [held key, new key, the new
// key again] appends exactly one line, the new key's, and counts one
// appended line in caem_store_appends_total.
func TestBatchAppendsOnlyNewKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Observe(obs.NewRegistry())
	if err := s.PutBatch([]Record{rec(0)}); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, dataFile)
	before, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	appends := s.met.appends.Value()

	held := rec(0)
	held.Summary.Delivered = 4242
	fresh, again := rec(1), rec(1)
	again.Summary.Delivered = 4343
	if err := s.PutBatch([]Record{held, fresh, again}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	fresh.V = recordVersion
	line, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append(before, line...), '\n'); !bytes.Equal(after, want) {
		t.Fatalf("the batch appended %q, want only the new key's line %s", after[len(before):], line)
	}
	if got := s.met.appends.Value() - appends; got != 1 {
		t.Fatalf("caem_store_appends_total rose by %v, want 1", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}
