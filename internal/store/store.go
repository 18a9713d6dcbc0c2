package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	dataFile     = "results.jsonl"
	campaignsDir = "campaigns"

	// recordVersion is the on-disk record format version.
	recordVersion = 1

	// defaultSegmentBytes is the active-tail size at which PutBatch rolls
	// the tail into an immutable segment.
	defaultSegmentBytes = 4 << 20
)

// Options tunes a store's segmentation behaviour. The zero value picks
// the defaults.
type Options struct {
	// SegmentBytes is the active-tail size threshold at which PutBatch
	// rolls the tail into an immutable segment. <= 0 selects the default
	// (4 MiB).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// WriteError wraps a failure to make stored data durable: appending a
// record line ("append"), fsyncing the log ("sync"), or rolling the
// active tail into a segment ("roll"). Callers that retry transient
// storage faults can detect it with errors.As; Unwrap exposes the
// underlying cause.
type WriteError struct {
	Op  string // "append" | "sync" | "roll"
	Err error
}

func (e *WriteError) Error() string { return fmt.Sprintf("store: %s: %v", e.Op, e.Err) }
func (e *WriteError) Unwrap() error { return e.Err }

// Key identifies one stored campaign cell. Hash is the caller-computed
// content hash of everything that determines the cell's result besides
// (Scenario, Protocol, Seed) — for caem campaigns, the normalized base
// configuration plus the full scenario spec — so a stored cell is only
// ever reused for a bit-identical rerun.
type Key struct {
	Hash     string
	Scenario string
	Protocol string
	Seed     uint64
}

// String renders the canonical index key: the path-escaped hash,
// scenario and protocol, and the decimal seed, joined by '/'. Fields are
// escaped so that no scenario or protocol name can alias another key.
// Every segment's bloom filter hashes these bytes, so they must never
// change.
func (k Key) String() string {
	// The key is assembled on the stack and copied once, so the string
	// that indexes hold is exactly its length.
	var buf [128]byte
	b := append(buf[:0], url.PathEscape(k.Hash)...)
	b = append(b, '/')
	b = append(b, url.PathEscape(k.Scenario)...)
	b = append(b, '/')
	b = append(b, url.PathEscape(k.Protocol)...)
	b = append(b, '/')
	b = strconv.AppendUint(b, k.Seed, 10)
	return string(b)
}

// parseKey parses a key back from its rendering: String escapes every
// '/' inside a field, so the rendering splits into exactly its four
// fields. A roll parses each tail key back for its footer's key ranges.
func parseKey(ks string) (Key, error) {
	f := strings.Split(ks, "/")
	if len(f) != 4 {
		return Key{}, fmt.Errorf("store: malformed key %q", ks)
	}
	var k Key
	var err error
	for i, dst := range []*string{&k.Hash, &k.Scenario, &k.Protocol} {
		if *dst, err = url.PathUnescape(f[i]); err != nil {
			return Key{}, fmt.Errorf("store: malformed key %q: %w", ks, err)
		}
	}
	if k.Seed, err = strconv.ParseUint(f[3], 10, 64); err != nil {
		return Key{}, fmt.Errorf("store: malformed key %q: %w", ks, err)
	}
	return k, nil
}

// validate reports the first structural problem with the key.
func (k Key) validate() error {
	switch {
	case k.Hash == "":
		return fmt.Errorf("store: key has empty hash")
	case k.Scenario == "":
		return fmt.Errorf("store: key has empty scenario")
	case k.Protocol == "":
		return fmt.Errorf("store: key has empty protocol")
	}
	return nil
}

// Summary is the flat per-run metric set stored with each cell: the
// headline evaluation metrics every campaign report and aggregate is
// built from. It deliberately excludes the bulky per-run detail (time
// series, per-node outcomes, round reports) — a stored cell answers
// "what did this run measure", not "replay everything it did".
type Summary struct {
	DurationSeconds        float64 `json:"durationSeconds"`
	Rounds                 int     `json:"rounds"`
	TotalConsumedJ         float64 `json:"totalConsumedJ"`
	AvgRemainingJ          float64 `json:"avgRemainingJ"`
	AliveAtEnd             int     `json:"aliveAtEnd"`
	FirstDeathSeconds      float64 `json:"firstDeathSeconds,omitempty"`
	FirstDeathValid        bool    `json:"firstDeathValid,omitempty"`
	NetworkLifetimeSeconds float64 `json:"networkLifetimeSeconds,omitempty"`
	NetworkDead            bool    `json:"networkDead,omitempty"`
	EnergyPerPacketMilliJ  float64 `json:"energyPerPacketMilliJ"`
	Generated              uint64  `json:"generated"`
	Delivered              uint64  `json:"delivered"`
	DroppedBuffer          uint64  `json:"droppedBuffer"`
	DroppedRetry           uint64  `json:"droppedRetry"`
	DeliveryRate           float64 `json:"deliveryRate"`
	ThroughputKbps         float64 `json:"throughputKbps"`
	MeanDelayMs            float64 `json:"meanDelayMs"`
	P95DelayMs             float64 `json:"p95DelayMs"`
	MaxDelayMs             float64 `json:"maxDelayMs"`
	QueueStdDev            float64 `json:"queueStdDev"`
	Collisions             uint64  `json:"collisions"`
	ChannelFails           uint64  `json:"channelFails"`
}

// Record is one stored campaign cell: a self-describing line of
// results.jsonl. Campaign is informative (which campaign first produced
// the cell); lookups go through Key, so any campaign with the same
// content hash reuses the cell.
type Record struct {
	V        int     `json:"v"`
	Campaign string  `json:"campaign,omitempty"`
	Hash     string  `json:"hash"`
	Scenario string  `json:"scenario"`
	Protocol string  `json:"protocol"`
	Seed     uint64  `json:"seed"`
	Summary  Summary `json:"summary"`
}

// Key returns the record's cell identity.
func (r Record) Key() Key {
	return Key{Hash: r.Hash, Scenario: r.Scenario, Protocol: r.Protocol, Seed: r.Seed}
}

// indexEntry locates one record line inside results.jsonl or inside a
// segment's record region. A segment's entry also carries the line's
// CRC-32C, newline included, which every read of the line checks; a
// tail entry's is zero and unused.
type indexEntry struct {
	Off int64
	Len int32
	CRC uint32
}

// Stats is a snapshot of the store's shape and access counters. The
// counters let tests prove access-path claims: bloom/range pruning shows
// up as SegmentLoads staying below the segment count, and Open's
// distinct recount as one load of every segment.
type Stats struct {
	Segments      int   // immutable segment files
	Distinct      int   // distinct stored cells (segments + active tail)
	ActiveRecords int   // distinct keys in the active tail
	ActiveBytes   int64 // bytes in the active tail

	SegmentLoads uint64 // lazy segment index loads
	Rolls        uint64 // active-tail rolls into segments
}

// Store is an open results store: immutable segment files plus an
// active JSONL tail. All methods are safe for concurrent use within one
// process.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File              // active tail handle
	size      int64                 // current validated tail length
	index     map[string]indexEntry // key → its latest tail record line
	segs      []*segment            // immutable segments, oldest first
	nextSeq   int                   // next segment sequence number
	distinct  int                   // distinct keys across segments + tail
	recovered int64                 // torn-tail bytes dropped by Open
	fault     func(op string) error // injected write fault (tests)
	met       *storeMetrics         // nil until Observe; nil is inert

	segmentLoads uint64
	rolls        uint64
	// corrupt counts segment checksum failures: each key block and each
	// record line read whose CRC-32C did not match. Open can count some
	// before Observe, which seeds the metric from it.
	corrupt uint64
	// decodes counts the record lines decoded, and jsonDecodes those of
	// them that decodeRecord handed to json.Unmarshal: none that PutBatch
	// wrote, unless a name needed JSON escaping.
	decodes     uint64
	jsonDecodes uint64
}

// SetFault installs a write-fault injector consulted before each log
// append ("append"), log fsync ("sync") and tail roll ("roll"). A
// non-nil return surfaces from PutBatch as a *WriteError with that Op.
// Fault-injection instrumentation for tests; pass nil to clear.
//
// The injection points model real partial-failure windows: an "append"
// fault fails before any byte is written (the log is untouched); a
// "sync" fault fails after the line hit the page cache but before the
// store acknowledged it, so the record is not indexed in this process
// but — exactly like a crash between write and fsync that the kernel
// nevertheless flushed — may legitimately reappear on reopen. A "roll"
// fault fails before the segment file is published (the tail is
// untouched, the triggering record already durable).
func (s *Store) SetFault(f func(op string) error) {
	s.mu.Lock()
	s.fault = f
	s.mu.Unlock()
}

// faultAt reports the injected fault for op, if any. Caller holds mu.
func (s *Store) faultAt(op string) error {
	if s.fault == nil {
		return nil
	}
	if err := s.fault(op); err != nil {
		s.met.fault(op)
		return &WriteError{Op: op, Err: err}
	}
	return nil
}

// Open opens (creating if needed) the store rooted at dir with default
// options. See OpenWith.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith opens (creating if needed) the store rooted at dir: segment
// footers are loaded (never their records), the active tail is scanned
// to rebuild its index, and a torn final line is truncated if the
// previous writer crashed mid-append. Startup cost is O(segments) plus
// one pass over the tail, which rolling bounds at SegmentBytes; each
// tail line goes through decodeRecord, which parses the lines PutBatch
// writes without encoding/json. A segment's key index is loaded later,
// once, by the first lookup its bloom filter admits, from the segment's
// key block, so a caller that looks up every stored key (as a service
// re-planning its campaigns does) reads every stored key once and
// decodes only the tail's records. A tail larger than the segment
// threshold (such as a flat log written before segmentation) is rolled
// into a segment on open.
func OpenWith(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, campaignsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, dataFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), f: f, index: make(map[string]indexEntry)}
	// Earlier versions checkpointed the tail index to index.json. Finding
	// one means such a version wrote here after this one last did, and
	// its compactions may have left the newest footer's count stale, so
	// load recounts. The file is then removed, durably, so that no older
	// version later trusts its offsets: the tail has moved on, and record
	// lines of similar length would decode as different, valid records
	// at the stale offsets.
	legacy := filepath.Join(dir, "index.json")
	_, err = os.Stat(legacy)
	found := err == nil
	if err := s.load(found); err != nil {
		f.Close()
		return nil, err
	}
	if found {
		if err := os.Remove(legacy); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	if s.size >= s.opts.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// load restores the in-memory state: segment footers, the distinct-cell
// count from the newest footer, then a scan of the whole tail. When that
// footer predates the count (it reads zero, while a segment is never
// empty), or when recount is set, the count is rebuilt instead from
// every segment's key index, and the next roll persists it.
func (s *Store) load(recount bool) error {
	segs, err := loadSegments(filepath.Join(s.dir, segmentsDir))
	if err != nil {
		return err
	}
	s.segs = segs
	counted := !recount
	if n := len(segs); n > 0 {
		s.nextSeq = segs[n-1].seq + 1
		s.distinct = segs[n-1].footer.Distinct
		counted = counted && s.distinct > 0
	}

	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.scan(fi.Size(), counted); err != nil {
		return err
	}
	if !counted {
		return s.recountDistinctLocked()
	}
	return nil
}

// scan decodes the tail's records in [0, to), building the tail index,
// and truncates the log at the first torn or undecodable line. When
// counted, the distinct count (restored from the newest segment footer)
// is maintained incrementally: each new tail key is counted unless a
// segment already holds it.
func (s *Store) scan(to int64, counted bool) error {
	buf := make([]byte, to)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("store: reading log tail: %w", err)
	}
	off := int64(0)
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			break // torn tail: no final newline
		}
		if nl >= math.MaxInt32 {
			break // no line PutBatch writes is this long
		}
		r, err := s.decodeLine(buf[:nl])
		if err != nil || r.V != recordVersion || r.Key().validate() != nil {
			break // undecodable or wrong-version line: stop here
		}
		k := r.Key()
		ks := k.String()
		if _, dup := s.index[ks]; !dup && counted {
			inSeg, err := s.inSegmentsLocked(k, ks)
			if err != nil {
				return err
			}
			if !inSeg {
				s.distinct++
			}
		}
		s.index[ks] = indexEntry{Off: off, Len: int32(nl + 1)}
		off += int64(nl + 1)
		buf = buf[nl+1:]
		s.size = off
	}
	if s.size < to {
		s.recovered = to - s.size
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	return nil
}

// recountDistinctLocked rebuilds the distinct-cell count by unioning
// every segment's key set with the tail, loading every segment index:
// the path when the newest segment footer cannot be trusted for the
// count (see load).
func (s *Store) recountDistinctLocked() error {
	set := make(map[string]struct{}, len(s.index))
	for _, seg := range s.segs {
		if err := s.ensureSegIndex(seg); err != nil {
			return err
		}
		for _, se := range seg.index {
			set[se.ks] = struct{}{}
		}
	}
	for ks := range s.index {
		set[ks] = struct{}{}
	}
	s.distinct = len(set)
	return nil
}

// ensureSegIndex loads a segment's lazy index, counting the load and a
// key block that failed its checksum. Caller holds mu.
func (s *Store) ensureSegIndex(g *segment) error {
	if g.index != nil {
		return nil
	}
	badKeys, err := g.ensureIndex(s.decodeLine)
	if badKeys {
		s.countCorrupt()
	}
	if err != nil {
		return err
	}
	s.segmentLoads++
	s.met.segmentLoad()
	return nil
}

// countCorrupt counts one segment checksum failure. Caller holds mu.
func (s *Store) countCorrupt() {
	s.corrupt++
	s.met.corruptRecord()
}

// decodeLine decodes one record line (newline excluded) with
// decodeRecord, counting the lines it decodes and those it hands to
// json.Unmarshal. Caller holds mu (or is single-threaded during load).
func (s *Store) decodeLine(line []byte) (Record, error) {
	r, fast, err := decodeRecord(line)
	s.decodes++
	if !fast {
		s.jsonDecodes++
	}
	return r, err
}

// inSegmentsLocked reports whether any segment holds the key k, rendered
// as ks, pruning with bloom filters and footer ranges before touching
// segment data.
func (s *Store) inSegmentsLocked(k Key, ks string) (bool, error) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		if !seg.mayContain(k, ks) {
			continue
		}
		if err := s.ensureSegIndex(seg); err != nil {
			return false, err
		}
		if _, ok := seg.index.lookup(ks); ok {
			return true, nil
		}
	}
	return false, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of distinct stored cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.distinct
}

// Stats returns a snapshot of the store's shape and access counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:      len(s.segs),
		Distinct:      s.distinct,
		ActiveRecords: len(s.index),
		ActiveBytes:   s.size,
		SegmentLoads:  s.segmentLoads,
		Rolls:         s.rolls,
	}
}

// RecoveredBytes reports how many torn-tail bytes Open dropped to
// restore a consistent log (0 for a clean shutdown).
func (s *Store) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Has reports whether a cell with the given key is stored.
func (s *Store) Has(k Key) bool {
	ks := k.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	in, err := s.holdsLocked(k, ks)
	return err == nil && in
}

// holdsLocked reports whether the tail or a segment holds the key k,
// rendered as ks. Caller holds mu.
func (s *Store) holdsLocked(k Key, ks string) (bool, error) {
	if _, ok := s.index[ks]; ok {
		return true, nil
	}
	return s.inSegmentsLocked(k, ks)
}

// Get returns the stored record for the key: the active tail first,
// then segments newest to oldest, pruned by bloom filters and footer
// ranges — one record line read, no scans. A store written before puts
// became write-once may hold several copies of a key; the newest wins.
// A segment line whose CRC-32C does not match its key block's is
// counted and answers an error, never a Record.
func (s *Store) Get(k Key) (Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(k)
}

func (s *Store) getLocked(k Key) (Record, bool, error) {
	ks := k.String()
	if e, ok := s.index[ks]; ok {
		r, err := s.readAt(e)
		if err != nil {
			return Record{}, false, err
		}
		return r, true, nil
	}
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		if !seg.mayContain(k, ks) {
			continue
		}
		if err := s.ensureSegIndex(seg); err != nil {
			return Record{}, false, err
		}
		e, ok := seg.index.lookup(ks)
		if !ok {
			continue
		}
		r, err := seg.readAt(e, s.decodeLine)
		if err != nil {
			if errors.Is(err, errChecksum) {
				s.countCorrupt()
			}
			return Record{}, false, err
		}
		return r, true, nil
	}
	return Record{}, false, nil
}

// readAt decodes the record line at a tail index entry. Caller holds mu
// (or is single-threaded during load).
func (s *Store) readAt(e indexEntry) (Record, error) {
	buf := make([]byte, e.Len)
	if _, err := s.f.ReadAt(buf, e.Off); err != nil {
		return Record{}, fmt.Errorf("store: reading record at %d: %w", e.Off, err)
	}
	r, err := s.decodeLine(bytes.TrimSuffix(buf, []byte{'\n'}))
	if err != nil {
		return Record{}, fmt.Errorf("store: corrupt record at %d: %w", e.Off, err)
	}
	return r, nil
}

// PutBatch appends the records whose key the store does not hold yet to
// the active tail, with one write and one fsync, then indexes them. A key
// is a content address (caem.CellHash): it fixes the record's Summary, so
// the store keeps the first write of each key and never appends a held
// key again, nor a key twice from one batch. The batch is acknowledged as
// a whole: a failed append or fsync returns a *WriteError and indexes
// none of its records. A batch of held keys appends nothing but still
// fsyncs, so a nil return means every key of the batch is durable, lines
// that Open adopted from a crashed writer's unsynced append included.
// When the tail reaches the segment threshold it is rolled into an
// immutable segment.
func (s *Store) PutBatch(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
	// json.Encoder writes exactly json.Marshal's bytes plus the newline.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	keys := make([]Key, len(rs))
	lens := make([]int, len(rs))
	for i, r := range rs {
		r.V = recordVersion
		keys[i] = r.Key()
		if err := keys[i].validate(); err != nil {
			return err
		}
		start := buf.Len()
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if lens[i] = buf.Len() - start; lens[i] > math.MaxInt32 {
			return fmt.Errorf("store: record %v encodes to %d bytes", keys[i], lens[i])
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(buf.Bytes(), keys, lens)
}

// appendLocked writes the encoded lines (one per key, lens[i] bytes
// each) of the keys the store does not hold at the end of the tail,
// fsyncs once, and only then indexes them. Caller holds mu.
func (s *Store) appendLocked(lines []byte, keys []Key, lens []int) error {
	// Every key is resolved against the tail and the segments before any
	// byte is written, so a segment read error cannot leave the count and
	// the log disagreeing. The lines of held and repeated keys are dropped
	// by moving the later lines down over them. Until one is dropped,
	// each line is already in place, and copy skips it: a batch of new
	// keys is written as encoded.
	kss := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	n, off := 0, 0
	for i, k := range keys {
		ks := k.String()
		line := lines[off : off+lens[i]]
		off += lens[i]
		if seen[ks] {
			continue
		}
		seen[ks] = true
		held, err := s.holdsLocked(k, ks)
		if err != nil {
			return err
		}
		if held {
			continue
		}
		n += copy(lines[n:], line)
		lens[len(kss)] = lens[i]
		kss = append(kss, ks)
	}
	if err := s.faultAt("append"); err != nil {
		return err
	}
	if _, err := s.f.WriteAt(lines[:n], s.size); err != nil {
		s.met.fault("append")
		return &WriteError{Op: "append", Err: err}
	}
	if err := s.faultAt("sync"); err != nil {
		return err
	}
	syncStart := time.Now()
	if err := s.f.Sync(); err != nil {
		s.met.fault("sync")
		return &WriteError{Op: "sync", Err: err}
	}
	s.met.observeFsync(time.Since(syncStart).Seconds())
	for i, ks := range kss {
		s.index[ks] = indexEntry{Off: s.size, Len: int32(lens[i])}
		s.size += int64(lens[i])
	}
	s.distinct += len(kss)
	s.met.appendDone(len(kss), n, s.distinct)
	if s.size >= s.opts.SegmentBytes {
		return s.rollLocked()
	}
	return nil
}

// rollLocked rolls the active tail into a new immutable segment: the
// tail's bytes, as they stand, are written with a key block, footer and
// trailer to a temp file, fsynced, renamed into place, and the segments
// directory is fsynced; only then is the tail truncated. The key block
// is the tail index, sorted by key, each entry with its line's CRC-32C.
// A tail holds one line per key in first-put order, unless it was
// written before puts became write-once: then its superseded lines go
// into the segment too, where the key block locates each key's later
// line, as the tail index did. The footer records the store's
// distinct-cell count, which is how the count survives a restart. A
// crash anywhere leaves either the intact tail (segment never
// published) or the segment plus a tail whose records duplicate it —
// both of which reopen correctly, because a read takes the tail's copy
// before any segment's.
func (s *Store) rollLocked() error {
	if len(s.index) == 0 {
		return nil
	}
	if err := s.faultAt("roll"); err != nil {
		return err
	}
	data := make([]byte, s.size)
	if _, err := s.f.ReadAt(data, 0); err != nil {
		return &WriteError{Op: "roll", Err: err}
	}
	index := sealIndex(data, s.index)
	keyBlock := appendKeyBlock(nil, index)
	ft, err := footerOf(index, s.size, keyBlock)
	if err != nil {
		return err
	}
	ft.Distinct = s.distinct
	path := filepath.Join(s.dir, segmentsDir, segName(s.nextSeq))
	if err := writeSegmentFile(path, data, keyBlock, ft); err != nil {
		return &WriteError{Op: "roll", Err: err}
	}
	// The truncate below destroys the tail's copy of these records, so
	// the segment's directory entry must be durable first.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return &WriteError{Op: "roll", Err: err}
	}
	s.segs = append(s.segs, &segment{path: path, seq: s.nextSeq, footer: ft, index: index})
	s.nextSeq++
	if err := s.f.Truncate(0); err != nil {
		return &WriteError{Op: "roll", Err: err}
	}
	if err := s.f.Sync(); err != nil {
		return &WriteError{Op: "roll", Err: err}
	}
	s.size = 0
	s.index = make(map[string]indexEntry)
	s.rolls++
	s.met.rollDone(len(s.segs))
	return nil
}

// Close releases the file handles. Every acknowledged write is already
// durable, so Close has nothing to write.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.closeHandle()
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// campaignPath maps a campaign id to its blob file. Ids are escaped so
// arbitrary identifiers cannot traverse outside the campaigns dir.
func (s *Store) campaignPath(id string) (string, error) {
	if id == "" {
		return "", fmt.Errorf("store: empty campaign id")
	}
	return filepath.Join(s.dir, campaignsDir, url.PathEscape(id)+".json"), nil
}

// PutCampaign persists an opaque campaign spec blob under id, creating
// or replacing it, durably and atomically: the blob is written to a
// temp file of its own, fsynced, renamed into place, and the directory
// is fsynced, the way a segment is published. Concurrent puts of one id
// never share a temp file, and a crash leaves the old blob or the new.
func (s *Store) PutCampaign(id string, blob []byte) error {
	path, err := s.campaignPath(id)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	_, err = f.Write(blob)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// GetCampaign returns the campaign spec blob stored under id.
func (s *Store) GetCampaign(id string) ([]byte, error) {
	path, err := s.campaignPath(id)
	if err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: campaign %q: %w", id, err)
	}
	return blob, nil
}

// Campaigns returns the ids of every stored campaign spec, sorted.
func (s *Store) Campaigns() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, campaignsDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id, err := url.PathUnescape(strings.TrimSuffix(name, ".json"))
		if err != nil {
			continue // not one of ours
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}
