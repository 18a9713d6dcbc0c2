package store

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const (
	segmentsDir = "segments"
	segmentExt  = ".jsonl"
	// footerVersion is the on-disk segment footer format version. Version
	// 3 added the key block; Open still reads footerV2 segments, which
	// have none, and a reader of version 2 refuses a version 3 footer.
	footerVersion = 3
	footerV2      = 2
	// segTrailerLen is the fixed length of the final trailer line: a
	// zero-padded decimal byte offset of the footer line plus "\n". A
	// fixed-width trailer lets Open find the footer by reading the last
	// 21 bytes instead of scanning the records.
	segTrailerLen = 21
)

// castagnoli is the CRC-32C table of every segment checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errChecksum marks segment bytes whose CRC-32C is not the one written
// with them.
var errChecksum = errors.New("checksum mismatch")

// segFooter is the self-describing metadata appended after a segment's
// record lines and key block: enough to route lookups (bloom + key
// ranges) and to locate and check the key block, without reading a
// single record. Open reads only footers, and takes the store's
// distinct-cell count from the newest one, which is what makes startup
// O(segments) + active tail instead of O(cells).
type segFooter struct {
	V        int   `json:"v"`
	Records  int   `json:"records"`  // distinct keys
	DataSize int64 `json:"dataSize"` // bytes of the record region
	// KeysSize and KeysCRC are the byte length and the CRC-32C of the key
	// block that follows the record region (both zero in version 2).
	KeysSize int64  `json:"keysSize,omitempty"`
	KeysCRC  uint32 `json:"keysCRC,omitempty"`
	MinScen  string `json:"minScenario"`
	MaxScen  string `json:"maxScenario"`
	MinProto string `json:"minProtocol"`
	MaxProto string `json:"maxProtocol"`
	MinSeed  uint64 `json:"minSeed"`
	MaxSeed  uint64 `json:"maxSeed"`
	Bloom    *bloom `json:"bloom"`
	// Distinct is the store-wide distinct-cell count when the roll that
	// wrote this segment finished. Open reads only the newest segment's;
	// zero (absent) marks a footer written before the count existed.
	Distinct int `json:"distinct,omitempty"`
}

// segment is one immutable segment file: the record lines of the tail
// it was rolled from, byte for byte, then the key block, then a footer
// line, then the fixed-width trailer. The key block holds one line per
// distinct key, sorted by rendered key, "<key> <offset> <length> <crc>",
// the numbers in decimal and the crc the CRC-32C of the key's record
// line, newline included. The footer is resident from Open; the per-key
// index is loaded lazily on the first lookup that the bloom filter
// cannot rule out, and cached. The index is all a loaded segment keeps
// per record.
type segment struct {
	path   string
	seq    int
	footer segFooter
	f      *os.File // lazily opened read handle
	index  segIndex // lazily built key index, by rendered key
}

// segEntry is one key of a loaded segment's index.
type segEntry struct {
	ks string
	e  indexEntry
}

// segIndex is a loaded segment's key index, sorted by rendered key. A
// segment's keys never change once it is written, so a sorted slice
// serves its lookups by binary search in 32 bytes a key besides the key
// string, where a map entry takes about 57. Nil means not loaded.
type segIndex []segEntry

// sortSegIndex sorts a segment's index entries, given in record order,
// by key; of two records of one key only the later is kept.
func sortSegIndex(x segIndex) segIndex {
	slices.SortFunc(x, func(a, b segEntry) int {
		if c := strings.Compare(a.ks, b.ks); c != 0 {
			return c
		}
		return cmp.Compare(a.e.Off, b.e.Off)
	})
	kept := x[:0]
	for i, se := range x {
		if i+1 < len(x) && x[i+1].ks == se.ks {
			continue // superseded by the record after it
		}
		kept = append(kept, se)
	}
	return kept
}

// lookup returns the index entry of the record keyed ks.
func (x segIndex) lookup(ks string) (indexEntry, bool) {
	i, ok := slices.BinarySearchFunc(x, ks, func(se segEntry, ks string) int { return strings.Compare(se.ks, ks) })
	if !ok {
		return indexEntry{}, false
	}
	return x[i].e, true
}

// segName renders the canonical file name for a sequence number.
func segName(seq int) string {
	return fmt.Sprintf("seg-%06d%s", seq, segmentExt)
}

// parseSegSeq extracts the sequence number from a segment file name.
func parseSegSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segmentExt) {
		return 0, false
	}
	seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segmentExt))
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// mayContain reports whether the segment could hold the key: the bloom
// filter plus the footer's scenario/protocol/seed ranges. False means
// definitely absent, so the lookup skips the segment entirely.
func (g *segment) mayContain(k Key, ks string) bool {
	ft := &g.footer
	if k.Scenario < ft.MinScen || k.Scenario > ft.MaxScen {
		return false
	}
	if k.Protocol < ft.MinProto || k.Protocol > ft.MaxProto {
		return false
	}
	if k.Seed < ft.MinSeed || k.Seed > ft.MaxSeed {
		return false
	}
	return ft.Bloom.has(ks)
}

// open returns the segment's read handle, opening it on first use.
func (g *segment) open() (*os.File, error) {
	if g.f != nil {
		return g.f, nil
	}
	f, err := os.Open(g.path)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment: %w", err)
	}
	g.f = f
	return f, nil
}

// closeHandle drops the cached read handle on store close.
func (g *segment) closeHandle() {
	if g.f != nil {
		g.f.Close()
		g.f = nil
	}
}

// ensureIndex loads the segment's key index on first use. A version 3
// segment's comes from its key block: one read of the block, a check of
// its CRC-32C, and a parse straight into the sorted index; no record is
// decoded. A version 2 segment, or one whose key block fails its
// checksum or does not parse, is indexed by decoding instead: one read
// of the record region, and one decode per line (the store's
// decodeRecord, which parses the lines PutBatch writes directly), each
// entry taking the CRC-32C of the line that decoded. A line that does
// not decode makes the segment corrupt. badKeys reports a key block that
// failed. The caller holds the store lock.
func (g *segment) ensureIndex(decode func([]byte) (Record, error)) (badKeys bool, err error) {
	if g.index != nil {
		return false, nil
	}
	f, err := g.open()
	if err != nil {
		return false, err
	}
	if g.footer.V == footerVersion {
		block := make([]byte, g.footer.KeysSize)
		if _, err := f.ReadAt(block, g.footer.DataSize); err != nil {
			return false, fmt.Errorf("store: reading segment %s keys: %w", filepath.Base(g.path), err)
		}
		if crc32.Checksum(block, castagnoli) == g.footer.KeysCRC {
			if index, err := parseKeyBlock(block, g.footer.Records, g.footer.DataSize); err == nil {
				g.index = index
				return false, nil
			}
		}
		badKeys = true // index the segment by decoding its records
	}
	buf := make([]byte, g.footer.DataSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return badKeys, fmt.Errorf("store: reading segment %s records: %w", filepath.Base(g.path), err)
	}
	index := make(segIndex, 0, g.footer.Records)
	off := int64(0)
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			return badKeys, fmt.Errorf("store: segment %s record region is not line-terminated", filepath.Base(g.path))
		}
		r, err := decode(buf[:nl])
		if err == nil && nl >= math.MaxInt32 {
			err = errors.New("line too long")
		}
		if err != nil {
			return badKeys, fmt.Errorf("store: segment %s holds a corrupt record at %d: %w", filepath.Base(g.path), off, err)
		}
		e := indexEntry{Off: off, Len: int32(nl + 1), CRC: crc32.Checksum(buf[:nl+1], castagnoli)}
		index = append(index, segEntry{r.Key().String(), e})
		off += int64(nl + 1)
		buf = buf[nl+1:]
	}
	g.index = sortSegIndex(index)
	return badKeys, nil
}

// readAt decodes the record at a segment entry once the line's CRC-32C
// matches the entry's; a mismatch is an errChecksum naming the segment
// and the offset, and no Record. The caller holds the store lock.
func (g *segment) readAt(e indexEntry, decode func([]byte) (Record, error)) (Record, error) {
	f, err := g.open()
	if err != nil {
		return Record{}, err
	}
	buf := make([]byte, e.Len)
	if _, err := f.ReadAt(buf, e.Off); err != nil {
		return Record{}, fmt.Errorf("store: reading segment %s record at %d: %w", filepath.Base(g.path), e.Off, err)
	}
	if crc32.Checksum(buf, castagnoli) != e.CRC {
		return Record{}, fmt.Errorf("store: segment %s record at %d: %w", filepath.Base(g.path), e.Off, errChecksum)
	}
	r, err := decode(bytes.TrimSuffix(buf, []byte{'\n'}))
	if err != nil {
		return Record{}, fmt.Errorf("store: corrupt segment %s record at %d: %w", filepath.Base(g.path), e.Off, err)
	}
	return r, nil
}

// sealIndex builds the key index of a segment rolled from the tail bytes
// data, whose index is tail: every entry gains the CRC-32C of its line,
// and the entries are sorted by key.
func sealIndex(data []byte, tail map[string]indexEntry) segIndex {
	x := make(segIndex, 0, len(tail))
	for ks, e := range tail {
		e.CRC = crc32.Checksum(data[e.Off:e.Off+int64(e.Len)], castagnoli)
		x = append(x, segEntry{ks, e})
	}
	return sortSegIndex(x)
}

// appendKeyBlock renders a sorted segment index as its key block: one
// line per entry, "<key> <offset> <length> <crc>\n" in decimal. A
// rendered key holds no space or newline (Key.String path-escapes
// both), so the first space of a line ends its key.
func appendKeyBlock(dst []byte, x segIndex) []byte {
	for _, se := range x {
		dst = append(dst, se.ks...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, se.e.Off, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(se.e.Len), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(se.e.CRC), 10)
		dst = append(dst, '\n')
	}
	return dst
}

// parseKeyBlock parses a key block back into the index appendKeyBlock
// rendered it from, for a segment of records distinct keys in a record
// region of dataSize bytes. It accepts exactly what appendKeyBlock
// writes for such a segment: records lines, keys non-empty and strictly
// increasing, numbers in canonical decimal, and every line inside the
// record region. Anything else is an error.
func parseKeyBlock(b []byte, records int, dataSize int64) (segIndex, error) {
	if records < 0 || dataSize < 0 {
		return nil, fmt.Errorf("key block of %d keys in %d bytes", records, dataSize)
	}
	// The shortest line, "k 0 1 0\n", is 8 bytes; no footer count can
	// make the index larger than the block allows.
	x := make(segIndex, 0, min(records, len(b)/8))
	for n := 1; len(b) > 0; n++ {
		line, rest, ok := bytes.Cut(b, []byte{'\n'})
		if !ok {
			return nil, fmt.Errorf("key block line %d is not terminated", n)
		}
		b = rest
		ks, nums, _ := bytes.Cut(line, []byte{' '})
		offB, nums, _ := bytes.Cut(nums, []byte{' '})
		lenB, crcB, _ := bytes.Cut(nums, []byte{' '})
		off, okOff := parseDec(offB)
		ln, okLen := parseDec(lenB)
		crc, okCRC := parseDec(crcB)
		switch {
		case !okOff || !okLen || !okCRC || len(ks) == 0:
			return nil, fmt.Errorf("key block line %d is malformed", n)
		case len(x) > 0 && string(ks) <= x[len(x)-1].ks:
			return nil, fmt.Errorf("key block line %d is out of order", n)
		case ln == 0 || ln > math.MaxInt32 || off > uint64(dataSize) || ln > uint64(dataSize)-off || crc > math.MaxUint32:
			return nil, fmt.Errorf("key block line %d locates no line of the %d-byte record region", n, dataSize)
		case len(x) == records:
			return nil, fmt.Errorf("key block holds more than %d keys", records)
		}
		x = append(x, segEntry{string(ks), indexEntry{Off: int64(off), Len: int32(ln), CRC: uint32(crc)}})
	}
	if len(x) != records {
		return nil, fmt.Errorf("key block holds %d keys, want %d", len(x), records)
	}
	return x, nil
}

// parseDec parses a canonical decimal: one to 19 digits, with no leading
// zero unless it is "0". Nineteen digits always fit a uint64.
func parseDec(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 || b[0] == '0' && len(b) > 1 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// footerOf builds the footer of a segment rolled from a record region
// of dataSize bytes, given its sorted key index and its key block.
func footerOf(x segIndex, dataSize int64, keyBlock []byte) (segFooter, error) {
	ft := segFooter{
		V: footerVersion, Records: len(x), DataSize: dataSize, Bloom: newBloom(len(x)),
		KeysSize: int64(len(keyBlock)), KeysCRC: crc32.Checksum(keyBlock, castagnoli),
	}
	for i, se := range x {
		k, err := parseKey(se.ks)
		if err != nil {
			return segFooter{}, err
		}
		if i == 0 {
			ft.MinScen, ft.MaxScen = k.Scenario, k.Scenario
			ft.MinProto, ft.MaxProto = k.Protocol, k.Protocol
			ft.MinSeed, ft.MaxSeed = k.Seed, k.Seed
		} else {
			ft.MinScen = min(ft.MinScen, k.Scenario)
			ft.MaxScen = max(ft.MaxScen, k.Scenario)
			ft.MinProto = min(ft.MinProto, k.Protocol)
			ft.MaxProto = max(ft.MaxProto, k.Protocol)
			ft.MinSeed = min(ft.MinSeed, k.Seed)
			ft.MaxSeed = max(ft.MaxSeed, k.Seed)
		}
		ft.Bloom.add(se.ks)
	}
	return ft, nil
}

// writeSegmentFile writes a record region + key block + footer + trailer
// to path via a temp file and atomic rename; the footer's DataSize and
// KeysSize must be their lengths. A crash at any point leaves either no
// segment (ignored .tmp) or the complete one — never a partial segment.
func writeSegmentFile(path string, data, keyBlock []byte, footer segFooter) error {
	ftBlob, err := json.Marshal(footer)
	if err != nil {
		return fmt.Errorf("store: marshaling segment footer: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment: %w", err)
	}
	if _, err := f.Write(keyBlock); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment keys: %w", err)
	}
	if _, err := f.Write(append(ftBlob, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment footer: %w", err)
	}
	trailer := fmt.Sprintf("%0*d\n", segTrailerLen-1, len(data)+len(keyBlock))
	if _, err := f.WriteString(trailer); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment trailer: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publishing segment: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making the creations, renames and
// unlinks inside it durable: a file's own fsync covers only its bytes,
// not its directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// openSegment loads a segment's footer (neither its keys nor its
// records): read the fixed-width trailer, seek to the footer line,
// decode it, and validate it against the file size.
func openSegment(path string, seq int) (*segment, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size < segTrailerLen {
		return nil, fmt.Errorf("store: segment %s is too short (%d bytes)", filepath.Base(path), size)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	trailer := make([]byte, segTrailerLen)
	if _, err := f.ReadAt(trailer, size-segTrailerLen); err != nil {
		return nil, fmt.Errorf("store: reading segment trailer: %w", err)
	}
	footerOff, err := strconv.ParseInt(strings.TrimLeft(strings.TrimSuffix(string(trailer), "\n"), "0"), 10, 64)
	if err != nil {
		if strings.Trim(string(trailer), "0\n") == "" {
			footerOff = 0 // all-zero trailer: footer at offset 0 (empty segment)
		} else {
			return nil, fmt.Errorf("store: segment %s trailer is corrupt: %w", filepath.Base(path), err)
		}
	}
	if footerOff < 0 || footerOff > size-segTrailerLen {
		return nil, fmt.Errorf("store: segment %s footer offset %d out of range", filepath.Base(path), footerOff)
	}
	ftBlob := make([]byte, size-segTrailerLen-footerOff)
	if _, err := f.ReadAt(ftBlob, footerOff); err != nil {
		return nil, fmt.Errorf("store: reading segment footer: %w", err)
	}
	var ft segFooter
	if err := json.Unmarshal(ftBlob, &ft); err != nil {
		return nil, fmt.Errorf("store: segment %s footer is corrupt: %w", filepath.Base(path), err)
	}
	known := ft.V == footerVersion || ft.V == footerV2 && ft.KeysSize == 0
	if !known || ft.DataSize < 0 || ft.KeysSize < 0 || ft.DataSize+ft.KeysSize != footerOff || ft.Records < 0 || ft.Bloom == nil {
		return nil, fmt.Errorf("store: segment %s footer is inconsistent (v=%d dataSize=%d off=%d)",
			filepath.Base(path), ft.V, ft.DataSize, footerOff)
	}
	return &segment{path: path, seq: seq, footer: ft}, nil
}

// loadSegments enumerates dir's segment files in sequence order,
// loading footers only. Stray .tmp files from a crashed roll are
// removed: their contents never became durable, and the roll republishes
// them from the still-intact active log. (A crashed compaction of an
// older version leaves one too, an abandoned rewrite of a segment that
// still exists in full.)
func loadSegments(dir string) ([]*segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []*segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		seq, ok := parseSegSeq(name)
		if !ok {
			continue
		}
		seg, err := openSegment(filepath.Join(dir, name), seq)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}
