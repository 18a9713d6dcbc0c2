package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// rec builds a distinct, fully populated record for index i.
func rec(i int) Record {
	return Record{
		Campaign: "test",
		Hash:     "deadbeef00112233",
		Scenario: "node-churn",
		Protocol: fmt.Sprintf("proto-%d", i%3),
		Seed:     uint64(i),
		Summary: Summary{
			DurationSeconds:       600,
			Rounds:                30 + i,
			TotalConsumedJ:        123.4567890123 + float64(i)/3,
			AvgRemainingJ:         0.1 * float64(i),
			AliveAtEnd:            100 - i,
			EnergyPerPacketMilliJ: 1.25 + float64(i)*0.001,
			Generated:             uint64(1000 * i),
			Delivered:             uint64(990 * i),
			DeliveryRate:          0.99,
			ThroughputKbps:        64.5,
			MeanDelayMs:           12.75,
			P95DelayMs:            40.5,
			MaxDelayMs:            99.9,
			QueueStdDev:           1.5,
			Collisions:            uint64(i),
		},
	}
}

// checkStored fails unless the store holds exactly the given records:
// Len counts each once, and Get returns each bit for bit.
func checkStored(t *testing.T, s *Store, want []Record) {
	t.Helper()
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	for _, w := range want {
		got, ok, err := s.Get(w.Key())
		if err != nil || !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("Get(%v) = %+v ok=%v err=%v, want %+v", w.Key(), got, ok, err, w)
		}
	}
}

// TestRoundTrip: Put → Close → Open must return bit-identical records
// through O(1) lookups across the restart.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
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

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredBytes() != 0 {
		t.Fatalf("clean reopen recovered %d bytes", s2.RecoveredBytes())
	}
	checkStored(t, s2, want)
	if _, ok, _ := s2.Get(Key{Hash: "no", Scenario: "no", Protocol: "no"}); ok {
		t.Fatal("Get of absent key reported ok")
	}
}

// TestRePutKeepsFirst: re-putting a held key appends nothing; lookups
// serve the first write, before and after reopen.
func TestRePutKeepsFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := rec(1)
	if err := s.PutBatch([]Record{r}); err != nil {
		t.Fatal(err)
	}
	size := s.Stats().ActiveBytes
	r2 := r
	r2.Summary.Delivered = 4242
	if err := s.PutBatch([]Record{r2}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if got := s.Stats().ActiveBytes; got != size {
		t.Fatalf("re-put grew the tail from %d to %d bytes", size, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	got, ok, err := s2.Get(r.Key())
	if err != nil || !ok {
		t.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	if got.Summary.Delivered != r.Summary.Delivered {
		t.Fatalf("Delivered = %d, want the first value %d", got.Summary.Delivered, r.Summary.Delivered)
	}
}

// TestTornTailRecovery: a crash mid-append leaves a partial final line;
// Open must truncate it away, report the dropped bytes, and leave the
// store appendable.
func TestTornTailRecovery(t *testing.T) {
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

	log := filepath.Join(dir, dataFile)
	torn := []byte(`{"v":1,"hash":"deadbeef00112233","scenario":"node-ch`)
	f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len after torn tail = %d, want 3", s2.Len())
	}
	if s2.RecoveredBytes() != int64(len(torn)) {
		t.Fatalf("RecoveredBytes = %d, want %d", s2.RecoveredBytes(), len(torn))
	}
	// The log itself must be truncated so the next append is clean.
	if err := s2.PutBatch([]Record{rec(7)}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 4 || s3.RecoveredBytes() != 0 {
		t.Fatalf("after recovery+append: Len=%d recovered=%d, want 4, 0", s3.Len(), s3.RecoveredBytes())
	}
}

// TestCorruptTailRecovery: a complete but undecodable line (torn write
// that happened to include a newline, bitrot) truncates from that line.
func TestCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.PutBatch([]Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, dataFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("{not json at all}\n")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len after corrupt line = %d, want 2", s2.Len())
	}
	if s2.RecoveredBytes() == 0 {
		t.Fatal("corrupt line was not reported as recovered")
	}
}

// TestStaleIndexTailScan: a reopen after a crash (no Close) must keep
// every acknowledged Put, rebuilding the tail index from the log.
func TestStaleIndexTailScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]Record{rec(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: drop the handle without Close.
	s.f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (tail record lost)", s2.Len())
	}
	if !s2.Has(rec(1).Key()) {
		t.Fatal("tail-scanned record missing from index")
	}
}

// TestCampaignBlobs: campaign specs round-trip, enumerate, and are
// replaced whole; concurrent puts of one id all succeed and leave no
// temp file behind.
func TestCampaignBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutCampaign("camp-b", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign("camp-a", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	ids, err := s.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"camp-a", "camp-b"}) {
		t.Fatalf("Campaigns = %v", ids)
	}
	blob, err := s.GetCampaign("camp-a")
	if err != nil || string(blob) != `{"a":1}` {
		t.Fatalf("GetCampaign = %q, %v", blob, err)
	}
	if _, err := s.GetCampaign("absent"); err == nil {
		t.Fatal("GetCampaign of absent id succeeded")
	}

	errs := make(chan error, 8)
	for range cap(errs) {
		go func() { errs <- s.PutCampaign("camp-a", []byte(`{"a":2}`)) }()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent PutCampaign: %v", err)
		}
	}
	if blob, err := s.GetCampaign("camp-a"); err != nil || string(blob) != `{"a":2}` {
		t.Fatalf("GetCampaign after replace = %q, %v", blob, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, campaignsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("campaigns dir holds %d files, want the 2 specs and no temp file", len(entries))
	}
}

// TestPutRejectsEmptyKey: structural key validation fails loudly.
func TestPutRejectsEmptyKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutBatch([]Record{Record{Scenario: "x", Protocol: "y"}}); err == nil {
		t.Fatal("Put with empty hash succeeded")
	}
}

// TestKeyEscaping: metacharacters in key fields cannot alias another key.
func TestKeyEscaping(t *testing.T) {
	a := Key{Hash: "h", Scenario: "a/b", Protocol: "c", Seed: 1}
	b := Key{Hash: "h", Scenario: "a", Protocol: "b/c", Seed: 1}
	if a.String() == b.String() {
		t.Fatalf("keys alias: %q", a.String())
	}
}
