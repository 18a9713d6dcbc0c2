package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func openT(t *testing.T, dir string) (*Journal, State) {
	t.Helper()
	j, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, st
}

func mustDo(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRoundTrip writes one epoch's record vocabulary and replays
// it: attempt counts and poison reports survive, byte for byte.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st := openT(t, dir)
	if len(st.Attempts) != 0 || len(st.Poisoned) != 0 {
		t.Fatalf("fresh journal is not empty: %+v", st)
	}
	mustDo(t,
		j.Begin(1, st),
		j.Retry("c/2", 1),
		j.Retry("c/2", 2),
		j.Poison("c/3", 4, json.RawMessage(`{"error":"boom"}`)),
	)
	j.Close()

	_, got := openT(t, dir)
	if got.Epoch != 1 {
		t.Fatalf("Epoch = %d, want 1", got.Epoch)
	}
	if want := map[string]int{"c/2": 2, "c/3": 4}; !reflect.DeepEqual(got.Attempts, want) {
		t.Fatalf("attempts = %v, want %v", got.Attempts, want)
	}
	if len(got.Poisoned) != 1 || string(got.Poisoned["c/3"]) != `{"error":"boom"}` {
		t.Fatalf("poisoned = %v, want c/3's report only", got.Poisoned)
	}
}

// TestJournalTornTailMidGrant cuts the file mid-way through its last
// record, a retry: Open must truncate back to the last whole record and
// replay as if the retry never happened.
func TestJournalTornTailMidGrant(t *testing.T) {
	dir := t.TempDir()
	j, st := openT(t, dir)
	mustDo(t, j.Begin(1, st), j.Retry("c/0", 1), j.Retry("c/1", 2))
	j.Close()

	path := filepath.Join(dir, "epoch-1.jsonl")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record: drop the last retry's trailing bytes.
	if err := os.WriteFile(path, blob[:len(blob)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, got := openT(t, dir)
	if want := map[string]int{"c/0": 1}; !reflect.DeepEqual(got.Attempts, want) {
		t.Fatalf("attempts after torn retry = %v, want %v", got.Attempts, want)
	}
	if j2.RecoveredBytes() == 0 {
		t.Fatal("torn tail recovered no bytes")
	}
	// The tear is physically gone: a re-open recovers nothing.
	j3, _ := openT(t, dir)
	if j3.RecoveredBytes() != 0 {
		t.Fatalf("second open still recovering %d bytes — tail was not truncated", j3.RecoveredBytes())
	}
	// And the journal carries on cleanly from the truncated state.
	mustDo(t, j3.Begin(2, got), j3.Retry("c/9", 1))
	j3.Close()
	_, again := openT(t, dir)
	if want := map[string]int{"c/0": 1, "c/9": 1}; !reflect.DeepEqual(again.Attempts, want) {
		t.Fatalf("attempts after truncate+append = %v, want %v", again.Attempts, want)
	}
}

// legacyFile is an epoch file in the format written when the journal
// also recorded the queue: a snap with queue and settled fields, and
// every retired record type (submit, grant, renew, settle) beside retry
// and poison.
const legacyFile = "testdata/legacy-epoch-1.jsonl"

// legacyState is what legacyFile replays to: its attempts and poisons,
// and nothing of its queue, grants or settlements.
func legacyState() State {
	const report = `{"campaign":%q,"index":%d,"scenario":"node-churn","protocol":"Scheme1","seed":1,"attempts":4,"error":"boom"}`
	return State{
		Epoch:    1,
		Attempts: map[string]int{"old/1": 4, "camp/1": 1, "camp/2": 2, "camp/3": 4},
		Poisoned: map[string]json.RawMessage{
			"old/1":  json.RawMessage(fmt.Sprintf(report, "old", 1)),
			"camp/3": json.RawMessage(fmt.Sprintf(report, "camp", 3)),
		},
	}
}

// TestJournalReplayIdempotent: replay ≡ replay∘replay. Folding a
// journal, snapshotting the result into a new epoch, and folding again
// yields the same state — and two plain Opens agree. One input is
// written by this package; the other is legacyFile, which must replay
// to exactly its attempts and poisons and leave no queue or settled
// field in the snapshot Begin rewrites.
func TestJournalReplayIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		write  func(t *testing.T, dir string)
		legacy bool
	}{
		{"written", func(t *testing.T, dir string) {
			j, st := openT(t, dir)
			mustDo(t,
				j.Begin(1, st),
				j.Retry("c/1", 1),
				j.Retry("c/2", 2),
				j.Poison("c/3", 4, json.RawMessage(`{"error":"boom"}`)),
			)
			j.Close()
		}, false},
		{"legacy", func(t *testing.T, dir string) {
			blob, err := os.ReadFile(legacyFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "epoch-1.jsonl"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)

			j1, first := openT(t, dir)
			_, second := openT(t, dir)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two replays disagree:\n%+v\n%+v", first, second)
			}
			if j1.RecoveredBytes() != 0 {
				t.Fatalf("replay dropped %d bytes of a whole file", j1.RecoveredBytes())
			}
			if want := legacyState(); tc.legacy && !reflect.DeepEqual(first, want) {
				t.Fatalf("replayed state:\n%+v\nwant\n%+v", first, want)
			}

			// Snapshot the replayed state into epoch 2 and replay once more:
			// the fold is a fixed point.
			j2, _ := openT(t, dir)
			mustDo(t, j2.Begin(2, first))
			j2.Close()
			snap, err := os.ReadFile(filepath.Join(dir, "epoch-2.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, field := range []string{`"queue"`, `"settled"`} {
				if strings.Contains(string(snap), field) {
					t.Fatalf("Begin wrote a %s field: %s", field, snap)
				}
			}
			_, third := openT(t, dir)
			third.Epoch = first.Epoch // the epoch advances by design; all else is fixed
			if !reflect.DeepEqual(first, third) {
				t.Fatalf("replay∘replay diverged:\n%+v\n%+v", first, third)
			}
		})
	}
}

// TestJournalBeginPrunesOldEpochs: once a new epoch's snapshot is
// durable, predecessor files are deleted, and a crash between the
// snapshot write and the prune (both files present) still converges.
func TestJournalBeginPrunesOldEpochs(t *testing.T) {
	dir := t.TempDir()
	j, st := openT(t, dir)
	mustDo(t, j.Begin(1, st), j.Retry("c/0", 1))
	j.Close()

	j2, st2 := openT(t, dir)
	mustDo(t, j2.Begin(2, st2))
	j2.Close()
	if _, err := os.Stat(filepath.Join(dir, "epoch-1.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("epoch-1 file survived Begin(2): %v", err)
	}

	// Crash window: resurrect the old epoch file alongside the new one.
	// Replay folds in epoch order and the newer snapshot wins.
	if err := os.WriteFile(filepath.Join(dir, "epoch-1.jsonl"),
		[]byte(`{"t":"snap","epoch":1,"attempts":{"stale/0":3},"poisoned":{"stale/0":{}}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, got := openT(t, dir)
	if got.Epoch != 2 {
		t.Fatalf("Epoch = %d, want 2", got.Epoch)
	}
	if want := map[string]int{"c/0": 1}; !reflect.DeepEqual(got.Attempts, want) || len(got.Poisoned) != 0 {
		t.Fatalf("state = %+v, want attempts %v and no poisons (stale epoch-1 content leaked)", got, want)
	}
}

// TestJournalMetrics: instruments register lint-clean and the append
// counters move.
func TestJournalMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	j, st := openT(t, dir)
	j.Observe(reg)
	mustDo(t, j.Begin(1, st), j.Retry("c/0", 1))
	j.Close()
	if errs := reg.Lint("caem_"); len(errs) != 0 {
		t.Fatalf("journal metrics fail the naming lint: %v", errs)
	}
	if n := j.met.appends.Value(); n != 2 {
		t.Fatalf("appends = %v, want 2 (the snapshot and the retry)", n)
	}
}
