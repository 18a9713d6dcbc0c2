package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// smallSeg rolls the active tail every couple of records — segment
// mechanics at test scale.
const smallSeg = 1000

// openSmall opens a store that rolls eagerly.
func openSmall(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenWith(dir, Options{SegmentBytes: smallSeg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// segmentRecords returns the record region of the store's segment seq.
func segmentRecords(t *testing.T, dir string, seq int) []byte {
	t.Helper()
	path := filepath.Join(dir, segmentsDir, segName(seq))
	seg, err := openSegment(path, seq)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob[:seg.footer.DataSize]
}

// TestRollCreatesSegments: Puts past the threshold roll the tail into
// immutable segments; every record stays readable through point
// lookups, before and after reopen.
func TestRollCreatesSegments(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	const n = 20
	want := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := rec(i)
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
		r.V = recordVersion
		want = append(want, r)
	}
	st := s.Stats()
	if st.Segments == 0 || st.Rolls == 0 {
		t.Fatalf("no segments after %d puts at threshold %d: %+v", n, smallSeg, st)
	}
	if st.Distinct != n {
		t.Fatalf("Distinct = %d, want %d", st.Distinct, n)
	}
	checkStored(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir) // default options: reopen must read v2 layout
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkStored(t, s2, want)
}

// TestFlatLogMigration: a flat store (one tail past the segment
// threshold, no segments) rolls into segments on open, with every cell
// readable and the record set bit-identical.
func TestFlatLogMigration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	want := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := rec(i)
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
		r.V = recordVersion
		want = append(want, r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openSmall(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.Segments == 0 {
		t.Fatal("migration open did not roll the flat log into segments")
	}
	if st.ActiveRecords != 0 {
		t.Fatalf("migration left %d records in the tail", st.ActiveRecords)
	}
	checkStored(t, s2, want)
}

// TestRollKeepsLaterTailLine: a tail written before puts became
// write-once may hold two lines of one key. Open and Get take the later;
// a roll copies both lines into the segment as they stand, and the
// segment resolves the key to the later one too, in memory and after a
// reopen.
func TestRollKeepsLaterTailLine(t *testing.T) {
	dir := t.TempDir()
	old := rec(0)
	old.V = recordVersion
	newer := old
	newer.Summary.Delivered = 4242
	other := rec(1)
	other.V = recordVersion
	var tail []byte
	for _, r := range []Record{old, other, newer} {
		tail = append(append(tail, encodeLine(t, r)...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, dataFile), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	want := []Record{newer, other}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkStored(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenWith(dir, Options{SegmentBytes: 1}) // rolls the tail on open
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 || st.ActiveRecords != 0 {
		t.Fatalf("shape %+v, want 1 segment and an empty tail", st)
	}
	checkStored(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segmentRecords(t, dir, 0); !bytes.Equal(got, tail) {
		t.Fatalf("the segment's records are\n%s\nnot the tail's three lines\n%s", got, tail)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkStored(t, s, want)
}

// TestRePutAcrossRollKeepsFirst: re-putting a key whose record lives in
// a segment appends nothing to the tail and serves the segment's copy,
// before and after reopen.
func TestRePutAcrossRollKeepsFirst(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	const n = 8
	for i := 0; i < n; i++ {
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Segments == 0 {
		t.Fatal("precondition: no segments rolled")
	}
	before := s.Stats()
	r := rec(2)
	r.Summary.Delivered = 777777
	if err := s.PutBatch([]Record{r}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ActiveBytes != before.ActiveBytes || st.Rolls != before.Rolls {
		t.Fatalf("re-putting a segment-resident key wrote to the tail: %+v, before %+v", st, before)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d after re-put, want %d", s.Len(), n)
	}
	got, ok, err := s.Get(r.Key())
	if err != nil || !ok || got.Summary.Delivered != rec(2).Summary.Delivered {
		t.Fatalf("Get after re-put = %+v ok=%v err=%v", got.Summary.Delivered, ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), n)
	}
	got, ok, err = s2.Get(r.Key())
	if err != nil || !ok || got.Summary.Delivered != rec(2).Summary.Delivered {
		t.Fatalf("reopened Get serves the re-put: %+v ok=%v err=%v", got.Summary.Delivered, ok, err)
	}
}

// TestRollFaultLeavesTailIntact: a failed roll surfaces as a typed
// error, but the triggering record is already durable and readable, and
// the roll succeeds once the fault clears.
func TestRollFaultLeavesTailIntact(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	s.SetFault(func(op string) error {
		if op == "roll" {
			return errors.New("segment disk full")
		}
		return nil
	})
	var rollErr error
	const n = 6
	faulted := 0
	for ; faulted < n; faulted++ {
		if err := s.PutBatch([]Record{rec(faulted)}); err != nil {
			rollErr = err
			break
		}
	}
	var we *WriteError
	if !errors.As(rollErr, &we) || we.Op != "roll" {
		t.Fatalf("faulted roll = %v, want *WriteError{Op: roll}", rollErr)
	}
	if s.Stats().Segments != 0 {
		t.Fatal("faulted roll still published a segment")
	}
	// Every record Put so far — including the one whose roll failed — is
	// durable in the tail.
	for i := 0; i <= faulted; i++ {
		if !s.Has(rec(i).Key()) {
			t.Fatalf("record %d lost by failed roll", i)
		}
	}
	s.SetFault(nil)
	for i := faulted + 1; i < 2*n; i++ {
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Segments == 0 {
		t.Fatal("roll did not recover after the fault cleared")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2*n {
		t.Fatalf("Len = %d, want %d", s2.Len(), 2*n)
	}
}

// TestCrashBetweenSegmentPublishAndTailTruncate reconstructs the
// narrowest roll crash window: the segment file is durable but the tail
// still holds the same records. Reads must see every cell exactly once,
// after the counted open and after the recount that an index.json
// forces, which loads each segment index once; a later roll of that tail
// changes neither Len nor any Get.
func TestCrashBetweenSegmentPublishAndTailTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	want := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := rec(i)
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
		r.V = recordVersion
		want = append(want, r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tailBlob, err := os.ReadFile(filepath.Join(dir, dataFile))
	if err != nil {
		t.Fatal(err)
	}

	// Reopen past the threshold: the open rolls the tail into a segment.
	s2 := openSmall(t, dir)
	if s2.Stats().Segments == 0 {
		t.Fatal("precondition: reopen did not roll")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the truncate, keeping the published segment: the exact
	// on-disk state of a crash between rename and truncate.
	if err := os.WriteFile(filepath.Join(dir, dataFile), tailBlob, 0o644); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen in crash window state: %v", err)
	}
	checkStored(t, s3, want)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"v":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.ActiveRecords != n || st.SegmentLoads != uint64(st.Segments) {
		t.Fatalf("recount shape %+v, want %d tail records and one load per segment", st, n)
	}
	checkStored(t, s3, want)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s3 = openSmall(t, dir) // rolls the restored tail into a second segment
	if st := s3.Stats(); st.Segments != 2 || st.ActiveRecords != 0 {
		t.Fatalf("shape %+v, want 2 segments and an empty tail", st)
	}
	checkStored(t, s3, want)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	checkStored(t, s3, want)
}

// TestPointReadsNeverFullScan: point lookups across a segmented store
// (hits and misses) load each segment index at most once.
func TestPointReadsNeverFullScan(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	const n = 30
	for i := 0; i < n; i++ {
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openSmall(t, dir)
	defer s2.Close()
	for i := 0; i < n; i++ {
		if _, ok, err := s2.Get(rec(i).Key()); err != nil || !ok {
			t.Fatalf("Get(%d) = ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 10; i++ {
		k := Key{Hash: "absent", Scenario: fmt.Sprintf("zz-%d", i), Protocol: "none", Seed: uint64(i)}
		if _, ok, _ := s2.Get(k); ok {
			t.Fatalf("absent key %d reported present", i)
		}
	}
	st := s2.Stats()
	if st.SegmentLoads > uint64(st.Segments) {
		t.Fatalf("SegmentLoads = %d > segments = %d (indexes reloaded?)", st.SegmentLoads, st.Segments)
	}
}

// TestBloomRangePruning: with one scenario per segment, a lookup loads
// only the one segment that can hold the key — footer ranges and bloom
// filters prune the rest without touching their data.
func TestBloomRangePruning(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 1}) // roll every Put
	if err != nil {
		t.Fatal(err)
	}
	scens := []string{"alpha", "beta", "gamma", "delta"}
	for _, sc := range scens {
		r := rec(0)
		r.Scenario = sc
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenWith(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Segments; got != len(scens) {
		t.Fatalf("segments = %d, want %d", got, len(scens))
	}
	k := rec(0).Key()
	k.Scenario = "delta"
	if _, ok, err := s2.Get(k); err != nil || !ok {
		t.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.SegmentLoads != 1 {
		t.Fatalf("SegmentLoads = %d, want 1 (range pruning failed)", st.SegmentLoads)
	}
}

// TestDistinctSurvivesRebuildWithSegments: a store written before
// segment footers carried the distinct count (and while the store still
// checkpointed its tail index to index.json) must open with an exact
// Len: the stale checkpoint is deleted unread, and the count is rebuilt
// from every segment's index, each loaded once. The next roll persists
// the count, so the following reopen loads no segment.
func TestDistinctSurvivesRebuildWithSegments(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	const n = 15
	for i := 0; i < n; i++ {
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // re-puts of held keys, which append nothing
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the store in the older format: footers without the count,
	// plus a checkpoint whose count is wrong.
	segs, err := loadSegments(filepath.Join(dir, segmentsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		blob, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		ft := seg.footer
		ft.Distinct = 0
		if err := writeSegmentFile(seg.path, blob[:ft.DataSize], blob[ft.DataSize:ft.DataSize+ft.KeysSize], ft); err != nil {
			t.Fatal(err)
		}
	}
	index := filepath.Join(dir, "index.json")
	if err := os.WriteFile(index, []byte(`{"v":2,"size":0,"distinct":3,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openSmall(t, dir)
	if _, err := os.Stat(index); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open left the old index checkpoint in place: %v", err)
	}
	if s2.Len() != n {
		t.Fatalf("rebuilt Len = %d, want %d", s2.Len(), n)
	}
	if st := s2.Stats(); st.SegmentLoads != uint64(st.Segments) {
		t.Fatalf("recount loaded %d segment indexes of %d segments", st.SegmentLoads, st.Segments)
	}
	total := n
	for rolls := s2.Stats().Rolls; s2.Stats().Rolls == rolls; total++ {
		if err := s2.PutBatch([]Record{rec(total)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openSmall(t, dir)
	defer s3.Close()
	if s3.Len() != total {
		t.Fatalf("Len after the count was persisted = %d, want %d", s3.Len(), total)
	}
	if st := s3.Stats(); st.SegmentLoads != 0 {
		t.Fatalf("reopen after a roll loaded %d segment indexes, want 0 (recounted?)", st.SegmentLoads)
	}
}

// TestOlderWriterCompactionForcesRecount: a version that still wrote
// index.json may have written to the store after this one rolled it. Its
// compaction could drop a re-put key from the segments while the tail
// held the new copy, so the newest footer's count already includes a key
// the tail scan would count again. Finding index.json must force the
// recount.
func TestOlderWriterCompactionForcesRecount(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 1}) // roll every Put
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Leave what the older version's re-put of rec(0) and compaction
	// leave: rec(0)'s segment deleted, its record in the tail, and the
	// checkpoint beside them.
	first := filepath.Join(dir, segmentsDir, segName(0))
	seg, err := openSegment(first, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dataFile), blob[:seg.footer.DataSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"v":2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("Len = %d, want %d", s2.Len(), n)
	}
}

// TestBloomRoundTrip: the footer bloom filter survives JSON and never
// yields a false negative; false positives stay rare.
func TestBloomRoundTrip(t *testing.T) {
	b := newBloom(200)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("hash%d/scen-%d/proto-%d/%d", i, i%7, i%3, i)
		b.add(keys[i])
	}
	blob, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var got bloom
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !got.has(k) {
			t.Fatalf("false negative for %q after JSON round trip", k)
		}
	}
	fp := 0
	const probes = 1000
	for i := 0; i < probes; i++ {
		if got.has(fmt.Sprintf("absent-%d/x/y/%d", i, i)) {
			fp++
		}
	}
	if fp > probes/10 { // ~1% expected at 10 bits/key; 10% is a hard fail
		t.Fatalf("false positive rate %d/%d far above spec", fp, probes)
	}
	if (&bloom{}).has("anything") != true {
		t.Fatal("zero-value bloom must not exclude")
	}
	var nilBloom *bloom
	if !nilBloom.has("anything") {
		t.Fatal("nil bloom must not exclude")
	}
}

// scrapeCounter returns the value a scrape of reg reports for the
// unlabelled family name.
func scrapeCounter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := exp.Value(name)
	if !ok {
		t.Fatalf("the scrape has no %s", name)
	}
	return v
}

// checksumStore writes n records through a store that rolls every
// couple of records and returns the records as Get returns them.
func checksumStore(t *testing.T, dir string, n int) []Record {
	t.Helper()
	s := openSmall(t, dir)
	want := make([]Record, 0, n)
	for i := range n {
		r := rec(i)
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
		r.V = recordVersion
		want = append(want, r)
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("precondition: %d segments, want 3 or more", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// rewrite applies edit to the bytes of the file at path.
func rewrite(t *testing.T, path string, edit func(blob []byte)) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(blob)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRecordBitFlip: one flipped digit inside a sealed record
// line still decodes, to other numbers, so only the key block's CRC-32C
// can tell. Get of that key answers an error naming the segment and the
// offset, and no Record; every other key reads unchanged, and the
// corruption counter rises by exactly 1.
func TestSegmentRecordBitFlip(t *testing.T) {
	dir := t.TempDir()
	want := checksumStore(t, dir, 12)
	seg, err := openSegment(filepath.Join(dir, segmentsDir, segName(0)), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	ft := seg.footer
	index, err := parseKeyBlock(blob[ft.DataSize:ft.DataSize+ft.KeysSize], ft.Records, ft.DataSize)
	if err != nil {
		t.Fatal(err)
	}
	hit := index[0]
	k, err := parseKey(hit.ks)
	if err != nil {
		t.Fatal(err)
	}
	var flipped []byte
	rewrite(t, seg.path, func(blob []byte) {
		line := blob[hit.e.Off : hit.e.Off+int64(hit.e.Len)-1]
		i := bytes.Index(line, []byte(`"rounds":`)) + len(`"rounds":`)
		line[i] ^= 1 // one digit for another
		flipped = bytes.Clone(line)
	})
	if r, _, err := decodeRecord(flipped); err != nil || r.Summary.Rounds == rec(int(k.Seed)).Summary.Rounds {
		t.Fatalf("precondition: the flipped line decodes to %+v, %v; want other numbers", r.Summary, err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Observe(reg)
	for _, w := range want {
		got, ok, err := s.Get(w.Key())
		if w.Key() != k {
			if err != nil || !ok || !sameRecord(got, w) {
				t.Fatalf("Get(%v) = %+v, %v, %v; want %+v", w.Key(), got, ok, err, w)
			}
			continue
		}
		if !errors.Is(err, errChecksum) || ok || got != (Record{}) {
			t.Fatalf("Get of the flipped line = %+v, %v, %v; want a checksum error and no record", got, ok, err)
		}
		for _, part := range []string{segName(0), fmt.Sprintf("at %d", hit.e.Off)} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("the checksum error %q does not name %q", err, part)
			}
		}
	}
	if s.corrupt != 1 {
		t.Fatalf("counted %d checksum failures, want 1", s.corrupt)
	}
	if got := scrapeCounter(t, reg, metricCorrupt); got != 1 {
		t.Fatalf("%s = %v, want 1", metricCorrupt, got)
	}
}

// TestSegmentKeyBlockBitFlip: a flipped digit in a key block still
// parses, to another checksum, so only the block's own CRC-32C can
// tell. The index load counts it and falls back to decoding that
// segment's records, so Has and Get still answer every key, and no
// other segment decodes a record.
func TestSegmentKeyBlockBitFlip(t *testing.T) {
	dir := t.TempDir()
	want := checksumStore(t, dir, 12)
	seg, err := openSegment(filepath.Join(dir, segmentsDir, segName(0)), 0)
	if err != nil {
		t.Fatal(err)
	}
	rewrite(t, seg.path, func(blob []byte) {
		block := blob[seg.footer.DataSize : seg.footer.DataSize+seg.footer.KeysSize]
		block[bytes.IndexByte(block, '\n')-1] ^= 1 // the first line's last crc digit
		if _, err := parseKeyBlock(block, seg.footer.Records, seg.footer.DataSize); err != nil {
			t.Fatalf("precondition: the flipped key block does not parse: %v", err)
		}
	})

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Observe(reg)
	tail := s.Stats().ActiveRecords
	for _, w := range want {
		if !s.Has(w.Key()) {
			t.Fatalf("Has(%v) = false", w.Key())
		}
	}
	st := s.Stats()
	if st.SegmentLoads != uint64(st.Segments) || s.decodes != uint64(tail+seg.footer.Records) {
		t.Fatalf("Has(all): %d segment loads of %d segments and %d lines decoded; want %d and the %d tail lines plus the %d of the flipped segment",
			st.SegmentLoads, st.Segments, s.decodes, st.Segments, tail, seg.footer.Records)
	}
	checkStored(t, s, want)
	if s.corrupt != 1 {
		t.Fatalf("counted %d checksum failures, want 1", s.corrupt)
	}
	if got := scrapeCounter(t, reg, metricCorrupt); got != 1 {
		t.Fatalf("%s = %v, want 1", metricCorrupt, got)
	}
}

// TestObserveSeedsOpenCounts: Open loads a segment index when a tail
// key may sit in a segment, which it does after a crash between
// publishing a segment and truncating the tail, and it counts a key
// block that fails its checksum; Observe comes later, and seeds both
// counters, so every scrape equals Stats().SegmentLoads and the
// checksum failures counted.
func TestObserveSeedsOpenCounts(t *testing.T) {
	dir := t.TempDir()
	want := checksumStore(t, dir, 12)
	segs, err := loadSegments(filepath.Join(dir, segmentsDir))
	if err != nil {
		t.Fatal(err)
	}
	newest := segs[len(segs)-1]
	rewrite(t, newest.path, func(blob []byte) {
		if err := os.WriteFile(filepath.Join(dir, dataFile), blob[:newest.footer.DataSize], 0o644); err != nil {
			t.Fatal(err)
		}
		blob[newest.footer.DataSize] ^= 1 // the first key's first byte
	})

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.SegmentLoads != 1 || s.corrupt != 1 {
		t.Fatalf("Open made %d segment loads and counted %d checksum failures, want 1 and 1", st.SegmentLoads, s.corrupt)
	}
	reg := obs.NewRegistry()
	s.Observe(reg)
	check := func(stage string) {
		t.Helper()
		if got, want := scrapeCounter(t, reg, metricSegmentLoads), float64(s.Stats().SegmentLoads); got != want {
			t.Fatalf("%s: %s = %v, want Stats().SegmentLoads = %v", stage, metricSegmentLoads, got, want)
		}
		if got := scrapeCounter(t, reg, metricCorrupt); got != 1 {
			t.Fatalf("%s: %s = %v, want 1", stage, metricCorrupt, got)
		}
	}
	check("open")
	checkStored(t, s, want)
	if st := s.Stats(); st.SegmentLoads < 2 {
		t.Fatalf("precondition: reading every key made %d segment loads in all, want more than Open's", st.SegmentLoads)
	}
	check("Get(all)")
}
