// Package journal is the coordinator's write-ahead log of what the
// results store cannot know: how often each cell has failed, and which
// cells are poisoned. Everything else a successor coordinator needs is
// durable elsewhere. A settled cell is its record in the results store,
// and a submitted campaign is its spec in the store's campaigns area. So
// a start or takeover restores attempts and poisons from the journal,
// then re-plans every stored spec against the store.
//
// There are three record types: snap opens each epoch file with the
// replayed state, retry carries a failing cell's absolute attempt
// count, and poison a terminally failed cell's opaque report. Each is
// fsynced before the operation that caused it is acknowledged. Losing a
// retry would reset a poison budget, and losing a poison would resurrect
// a cell that fails deterministically. A fault-free campaign appends
// nothing after its epoch's snapshot.
//
// The on-disk idioms mirror the results store: records are appended
// with WriteAt at a validated offset and fsynced, and Open truncates a
// torn tail (a crash mid-append) back to the last whole record. Each
// leadership epoch writes its own file, epoch-<n>.jsonl, whose first
// record is a snapshot of the fully-replayed predecessor state; once
// the new epoch's snapshot is durable, older epoch files are deleted.
// Replay therefore folds files in epoch order, each snapshot replacing
// the accumulated state, so recovery converges no matter where a crash
// interleaved with the hand-off.
//
// Epoch files written when the journal also recorded submissions,
// grants, renewals and settlements still replay. Their submit, grant,
// renew and settle records, and the queue and settled fields of their
// snapshots, are skipped, and the next Begin writes a snapshot without
// them.
//
// The journal stores poison reports as opaque JSON keyed by the cell's
// queue key; it knows nothing of the cluster package's types, so the
// cluster coordinator can depend on it without a cycle.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is the replayed journal: the failure history a successor
// coordinator restores before it re-plans the stored campaigns.
// Attempts carries absolute per-key failure counts (so a replayed retry
// cannot double-count), and Poisoned the opaque poison reports.
type State struct {
	Epoch    int64
	Attempts map[string]int
	Poisoned map[string]json.RawMessage
}

// record is one JSONL line. T selects the variant; unused fields are
// omitted. Replay skips any other type and any other field.
type record struct {
	T string `json:"t"` // snap | retry | poison

	// snap
	Epoch    int64                      `json:"epoch,omitempty"`
	Attempts map[string]int             `json:"attempts,omitempty"`
	Poisoned map[string]json.RawMessage `json:"poisoned,omitempty"`

	// retry / poison
	Key    string          `json:"k,omitempty"`
	N      int             `json:"n,omitempty"`
	Report json.RawMessage `json:"c,omitempty"`
}

// Metric families owned by this package.
const (
	metricAppends   = "caem_journal_appends_total"
	metricBytes     = "caem_journal_bytes_total"
	metricFsync     = "caem_journal_fsync_seconds"
	metricReplayed  = "caem_journal_replayed_records"
	metricRecovered = "caem_journal_recovered_bytes"
)

type metrics struct {
	appends   *obs.Counter
	bytes     *obs.Counter
	fsync     *obs.Histogram
	replayed  *obs.Gauge
	recovered *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		appends: reg.Counter(metricAppends,
			"Records appended to the coordinator journal."),
		bytes: reg.Counter(metricBytes,
			"Bytes appended to the coordinator journal."),
		fsync: reg.Histogram(metricFsync,
			"Journal fsync latency in seconds.",
			obs.LatencyBuckets),
		replayed: reg.Gauge(metricReplayed,
			"Journal records replayed by the last Open."),
		recovered: reg.Gauge(metricRecovered,
			"Torn-tail bytes truncated from the journal by the last Open."),
	}
}

// RegisterMetrics registers every metric family this package can emit
// on reg — the catalog surface used by the obs-check lint.
func RegisterMetrics(reg *obs.Registry) {
	newMetrics(reg)
}

// Journal is an open coordinator write-ahead log. After Open replays
// the directory, Begin starts the caller's epoch file; the append
// methods are then safe for concurrent use.
type Journal struct {
	dir string

	mu        sync.Mutex
	f         *os.File // current epoch file, nil until Begin
	size      int64    // validated length of the current file
	replayed  int
	recovered int64
	met       *metrics
}

// Open replays every epoch file under dir (creating it if absent) and
// returns the journal plus the folded state. The newest file's torn
// tail, if any, is truncated back to the last whole record; older
// files are read-only and merely stop parsing at a tear. Open does not
// start an epoch — call Begin before appending.
func Open(dir string) (*Journal, State, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, State{}, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir}
	files, err := j.epochFiles()
	if err != nil {
		return nil, State{}, err
	}
	st := emptyState()
	for i, name := range files {
		truncate := i == len(files)-1 // only the live tail is repaired
		if err := j.replayFile(filepath.Join(dir, name), &st, truncate); err != nil {
			return nil, State{}, err
		}
	}
	return j, st, nil
}

func emptyState() State {
	return State{
		Attempts: make(map[string]int),
		Poisoned: make(map[string]json.RawMessage),
	}
}

// epochFiles lists epoch-*.jsonl names in epoch order.
func (j *Journal) epochFiles() ([]string, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := epochOf(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(a, b int) bool {
		ea, _ := epochOf(names[a])
		eb, _ := epochOf(names[b])
		return ea < eb
	})
	return names, nil
}

func epochOf(name string) (int64, bool) {
	if !strings.HasPrefix(name, "epoch-") || !strings.HasSuffix(name, ".jsonl") {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "epoch-"), ".jsonl"), 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func epochFile(epoch int64) string { return fmt.Sprintf("epoch-%d.jsonl", epoch) }

// replayFile folds one epoch file into st, stopping at the first torn
// or undecodable line. When truncate is set the tear is cut off the
// file so the next append extends a clean tail.
func (j *Journal) replayFile(path string, st *State, truncate bool) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	valid := int64(0)
	for len(blob) > 0 {
		nl := bytes.IndexByte(blob, '\n')
		if nl < 0 {
			break // torn tail: no newline
		}
		var rec record
		if err := json.Unmarshal(blob[:nl], &rec); err != nil {
			break // torn tail: undecodable line
		}
		st.apply(rec)
		j.replayed++
		valid += int64(nl + 1)
		blob = blob[nl+1:]
	}
	if rest := int64(len(blob)); rest > 0 {
		j.recovered += rest
		if truncate {
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("journal: truncating torn tail: %w", err)
			}
		}
	}
	return nil
}

// apply folds one record into st.
func (st *State) apply(rec record) {
	switch rec.T {
	case "snap":
		// A snapshot replaces everything accumulated so far — it is the
		// new epoch's authoritative view of its predecessors.
		*st = emptyState()
		st.Epoch = rec.Epoch
		maps.Copy(st.Attempts, rec.Attempts)
		maps.Copy(st.Poisoned, rec.Poisoned)
	case "retry", "poison":
		// Absolute count: replaying the same record twice cannot
		// double-charge the poison budget.
		if rec.N > st.Attempts[rec.Key] {
			st.Attempts[rec.Key] = rec.N
		}
		if rec.T == "poison" {
			st.Poisoned[rec.Key] = rec.Report
		}
	}
}

// Begin starts the given epoch: it writes a new epoch file whose first
// record snapshots snap, fsyncs it, points the journal's appends at
// it, and deletes older epoch files (their content now lives in the
// snapshot). Safe to call on a fresh journal with an empty state.
func (j *Journal) Begin(epoch int64, snap State) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	path := filepath.Join(j.dir, epochFile(epoch))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f, j.size = f, 0
	if err := j.appendLocked(record{
		T: "snap", Epoch: epoch, Attempts: snap.Attempts, Poisoned: snap.Poisoned,
	}); err != nil {
		return err
	}
	// Make the new epoch file's directory entry durable BEFORE unlinking
	// predecessors: fsyncing the record's content alone leaves the
	// creation in the directory's dirty page, and a crash could persist
	// the unlinks while losing the creation — zero epoch files, total
	// loss of the state the WAL exists to preserve.
	if err := syncDir(j.dir); err != nil {
		return err
	}
	// The snapshot is durable; predecessors are now redundant.
	files, err := j.epochFiles()
	if err != nil {
		return err
	}
	for _, name := range files {
		if e, _ := epochOf(name); e < epoch {
			os.Remove(filepath.Join(j.dir, name))
		}
	}
	return syncDir(j.dir)
}

// syncDir fsyncs the directory itself, making file creations and
// unlinks inside it durable — the content fsync in appendLocked covers
// only the file's bytes, not its directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}

// appendLocked writes one record line at the validated offset and
// fsyncs it. Caller holds mu.
func (j *Journal) appendLocked(rec record) error {
	if j.f == nil {
		return fmt.Errorf("journal: append before Begin")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.WriteAt(line, j.size); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.size += int64(len(line))
	if j.met != nil {
		j.met.fsync.Observe(time.Since(start).Seconds())
		j.met.appends.Inc()
		j.met.bytes.Add(float64(len(line)))
	}
	return nil
}

func (j *Journal) append(rec record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(rec)
}

// Retry records a cell failure with its absolute attempt count.
func (j *Journal) Retry(key string, attempts int) error {
	return j.append(record{T: "retry", Key: key, N: attempts})
}

// Poison records a terminally failed cell with its opaque report.
func (j *Journal) Poison(key string, attempts int, report json.RawMessage) error {
	return j.append(record{T: "poison", Key: key, N: attempts, Report: report})
}

// ReplayedRecords reports how many records the Open replay folded.
func (j *Journal) ReplayedRecords() int { return j.replayed }

// RecoveredBytes reports the torn-tail bytes Open dropped.
func (j *Journal) RecoveredBytes() int64 { return j.recovered }

// Observe attaches the journal's instruments to reg and publishes the
// replay gauges.
func (j *Journal) Observe(reg *obs.Registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.met = newMetrics(reg)
	j.met.replayed.Set(float64(j.replayed))
	j.met.recovered.Set(float64(j.recovered))
}

// Close closes the current epoch file, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
