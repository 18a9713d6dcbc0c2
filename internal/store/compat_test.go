package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// compatDir is a store written before decodeRecord existed, when every
// read went through json.Unmarshal: two segments (SegmentBytes 3000)
// and a five-line tail whose last line re-puts a segment-resident cell.
// Its scenario names are "a/b", "x y", "<&>" and "é", so its keys need
// path escaping, and the encoder wrote "<&>" as "\u003c\u0026\u003e".
const compatDir = "testdata/compat"

// compatLines returns the record lines of a store directory in the order
// they were written: each segment's record region, oldest segment
// first, then the tail. A segment is cut at its footer's dataSize, which
// leaves out the key block, the footer and the trailer.
func compatLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := loadSegments(filepath.Join(dir, segmentsDir))
	if err != nil {
		t.Fatal(err)
	}
	var regions [][]byte
	for _, seg := range segs {
		regions = append(regions, segmentRecords(t, dir, seg.seq))
	}
	tail, err := os.ReadFile(filepath.Join(dir, dataFile))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, region := range append(regions, tail) {
		if len(region) > 0 {
			lines = append(lines, bytes.Split(bytes.TrimSuffix(region, []byte{'\n'}), []byte{'\n'})...)
		}
	}
	return lines
}

// TestOpenCompatStore: the current reader opens a store written before
// it. Has finds every key, which pins the Key.String bytes the committed
// bloom filters hash; Get returns what json.Unmarshal reads from the
// same lines (of two copies of a key, the later, as when the store was
// written); and exactly the lines whose names the encoder escaped went
// through json.Unmarshal. Rolling the old tail into a segment, whose
// line re-puts a key of an older segment, changes no answer, before or
// after the next reopen.
func TestOpenCompatStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(compatDir)); err != nil {
		t.Fatal(err)
	}
	want := make(map[Key]Record)
	escaped := 0
	for _, line := range compatLines(t, dir) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("testdata line %s: %v", line, err)
		}
		want[r.Key()] = r
		if bytes.IndexByte(line, '\\') >= 0 {
			if r.Scenario != "<&>" {
				t.Fatalf("testdata line %s escapes something other than the <&> scenario", line)
			}
			escaped++
		}
	}
	if len(want) != 16 || escaped == 0 {
		t.Fatalf("testdata holds %d cells and %d escaped lines, want 16 and some", len(want), escaped)
	}
	tail, err := os.ReadFile(filepath.Join(dir, dataFile))
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 2 || st.Distinct != len(want) || st.ActiveRecords != 5 {
		t.Fatalf("opened shape %+v, want 2 segments, %d cells, 5 tail records", st, len(want))
	}
	for k := range want {
		if !s.Has(k) {
			t.Fatalf("Has(%v) = false", k)
		}
	}
	if s.jsonDecodes != uint64(escaped) {
		t.Fatalf("opening and Has(all) sent %d lines through json.Unmarshal, want the %d escaped ones", s.jsonDecodes, escaped)
	}
	checkCompat := func(s *Store, stage string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", stage, s.Len(), len(want))
		}
		for k, w := range want {
			got, ok, err := s.Get(k)
			if err != nil || !ok || !sameRecord(got, w) {
				t.Fatalf("%s: Get(%v) = %+v, %v, %v; want %+v", stage, k, got, ok, err, w)
			}
		}
	}
	checkCompat(s, "open")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A one-byte threshold rolls the tail on open.
	s, err = OpenWith(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 3 || st.ActiveRecords != 0 {
		t.Fatalf("rolled shape %+v, want 3 segments and an empty tail", st)
	}
	checkCompat(s, "roll")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segmentRecords(t, dir, 2), tail) {
		t.Fatal("the rolled segment's records are not the tail's bytes")
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkCompat(s, "reopen after the roll")
}

// TestMixedSegmentVersions: a roll on top of the committed store writes
// a version 3 segment beside its two version 2 ones, and every key reads
// as before, in the process that rolled and after a reopen, with no
// checksum failure. The old segments are indexed by decoding their
// lines, the new one from its key block.
func TestMixedSegmentVersions(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(compatDir)); err != nil {
		t.Fatal(err)
	}
	want := make(map[Key]Record)
	for _, line := range compatLines(t, dir) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("testdata line %s: %v", line, err)
		}
		want[r.Key()] = r
	}
	check := func(s *Store, stage string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", stage, s.Len(), len(want))
		}
		for k, w := range want {
			got, ok, err := s.Get(k)
			if err != nil || !ok || !sameRecord(got, w) {
				t.Fatalf("%s: Get(%v) = %+v, %v, %v; want %+v", stage, k, got, ok, err, w)
			}
		}
	}

	s, err := OpenWith(dir, Options{SegmentBytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Stats().Segments == 2; i++ {
		r := rec(100 + i)
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
		r.V = recordVersion
		want[r.Key()] = r
	}
	check(s, "roll")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	versions := make([]int, 0, 3)
	for _, seg := range s.segs {
		versions = append(versions, seg.footer.V)
	}
	if len(versions) != 3 || versions[0] != footerV2 || versions[1] != footerV2 || versions[2] != footerVersion {
		t.Fatalf("segment footer versions %v, want [2 2 3]", versions)
	}
	check(s, "reopen")
	if s.corrupt != 0 {
		t.Fatalf("counted %d checksum failures, want none", s.corrupt)
	}
	// compatLines cuts the new segment at its dataSize too, so the lines
	// it returns, later lines winning, are still exactly what Get reads.
	last := make(map[Key]Record)
	for _, line := range compatLines(t, dir) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("record line %s: %v", line, err)
		}
		last[r.Key()] = r
	}
	if len(last) != len(want) {
		t.Fatalf("compatLines found %d cells in the mixed store, want %d", len(last), len(want))
	}
	for k, w := range want {
		if !sameRecord(last[k], w) {
			t.Fatalf("compatLines' last line of %v is %+v, want %+v", k, last[k], w)
		}
	}
}
