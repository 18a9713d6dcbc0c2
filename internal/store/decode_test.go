package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// sameRecord reports whether two records are equal, float fields
// compared by their bits (so -0 differs from 0, and NaN equals itself).
func sameRecord(a, b Record) bool {
	return sameFields(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameFields(a, b reflect.Value) bool {
	for i := range a.NumField() {
		x, y := a.Field(i), b.Field(i)
		switch x.Kind() {
		case reflect.Struct:
			if !sameFields(x, y) {
				return false
			}
		case reflect.Float64:
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		default:
			if x.Interface() != y.Interface() {
				return false
			}
		}
	}
	return true
}

// encodeLine renders a record exactly as PutBatch does, newline dropped.
func encodeLine(t testing.TB, r Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
}

// fullRecord sets every field of a record, Summary's included, to a
// distinct non-zero value through reflection, so a field added to
// Record or Summary is covered without editing this test.
func fullRecord() Record {
	var r Record
	fill(reflect.ValueOf(&r).Elem(), 1)
	r.V = recordVersion
	return r
}

func fill(v reflect.Value, n int) int {
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			n = fill(f, n)
			continue
		case reflect.String:
			f.SetString(fmt.Sprintf("name-%d", n))
		case reflect.Int:
			f.SetInt(int64(-n))
		case reflect.Uint64:
			f.SetUint(uint64(n) << 40)
		case reflect.Float64:
			f.SetFloat(float64(n) / 7)
		case reflect.Bool:
			f.SetBool(true)
		default:
			panic(fmt.Sprintf("fill: unhandled kind %v", f.Kind()))
		}
		n++
	}
	return n
}

// decodeSeedRecords are records whose PutBatch lines exercise every
// corner of the direct parse: names that need path escaping and JSON
// escaping, every field set and every omitempty field absent, the
// extreme integers, and floats whose shortest form is signed zero,
// subnormal, exponent or 17 digits long.
func decodeSeedRecords() []Record {
	full := fullRecord()
	base := rec(7)
	base.V = recordVersion
	var rs []Record
	for _, name := range []string{"a/b", "x y", "<&>", "é", "100%", "tab\t", `q"uote`, `back\slash`, " ", "\xff", "日本"} {
		r := base
		r.Scenario, r.Protocol, r.Campaign = name, name+"-p", name+"-c"
		rs = append(rs, r)
	}
	extreme := full
	extreme.Campaign = ""
	extreme.Seed = math.MaxUint64
	extreme.Summary.Rounds = math.MinInt64
	extreme.Summary.AliveAtEnd = math.MaxInt64
	extreme.Summary.Generated = math.MaxUint64
	extreme.Summary.DurationSeconds = math.Copysign(0, -1)
	extreme.Summary.TotalConsumedJ = math.SmallestNonzeroFloat64
	extreme.Summary.AvgRemainingJ = 2.2250738585072e-310
	extreme.Summary.FirstDeathSeconds = 0.1 + 0.2
	extreme.Summary.NetworkLifetimeSeconds = math.MaxFloat64
	extreme.Summary.EnergyPerPacketMilliJ = 1e21
	extreme.Summary.DeliveryRate = 1e-7
	extreme.Summary.ThroughputKbps = -1.0 / 3
	extreme.Summary.MeanDelayMs = 123456789.12345678
	sparse := rec(3) // every omitempty field absent
	sparse.Campaign = ""
	return append(rs, base, full, extreme, sparse)
}

// decodeSeedLines is FuzzRecordDecode's corpus: the canonical lines of
// decodeSeedRecords, every truncation of one of them, and variants that
// json.Unmarshal reads differently from the canonical shape or rejects.
func decodeSeedLines(t testing.TB) [][]byte {
	var lines [][]byte
	for _, r := range decodeSeedRecords() {
		lines = append(lines, encodeLine(t, r))
	}
	canon := string(encodeLine(t, fullRecord()))
	for i := range len(canon) {
		lines = append(lines, []byte(canon[:i]))
	}
	variants := []struct{ old, new string }{
		// whitespace
		{`{`, ` {`}, {`{"v"`, "{\n\"v\""}, {`"v":`, `"v" :`}, {`"v":`, `"v": `},
		{`}}`, `} }`}, {`}}`, "}}\r"}, {`,"hash"`, ` ,"hash"`},
		// case-folded, duplicate and unknown keys
		{`"hash"`, `"HASH"`}, {`"seed"`, `"Seed"`}, {`"durationSeconds"`, `"DurationSeconds"`},
		{`"summary"`, `"Summary"`}, {`{"v":1`, `{"v":1,"v":2`},
		{`}}`, `},"seed":7}`}, {`}}`, `},"summary":{"rounds":3}}`}, {`,"hash"`, `,"hash":"dup","hash"`},
		{`}}`, `},"extra":1}`}, {`{"v":1`, `{"extra":[1,{"x":null}],"v":1`}, {`}}`, `,"extra":true}}`},
		// null
		{`"hash":"name-3"`, `"hash":null`}, {`"seed":`, `"seed":null,"x":`},
		// trailing bytes
		{`}}`, `}}x`}, {`}}`, `}}}`}, {`}}`, `}} {}`}, {`}}`, `}},`},
		// numbers json rejects or reads differently
		{`"v":1`, `"v":01`}, {`"v":1`, `"v":-0`}, {`"v":1`, `"v":1.0`}, {`"v":1`, `"v":1e0`},
		{`"v":1`, `"v":+1`}, {`"v":1`, `"v":9223372036854775808`}, {`"v":1`, `"v":-9223372036854775808`},
		{`"seed":`, `"seed":-0,"x":`}, {`"seed":`, `"seed":18446744073709551616,"x":`},
		{`"durationSeconds":`, `"durationSeconds":-.5,"x":`}, {`"durationSeconds":`, `"durationSeconds":.5,"x":`},
		{`"durationSeconds":`, `"durationSeconds":1.,"x":`}, {`"durationSeconds":`, `"durationSeconds":1E5,"x":`},
		{`"durationSeconds":`, `"durationSeconds":1e+5,"x":`}, {`"durationSeconds":`, `"durationSeconds":1e400,"x":`},
		{`"durationSeconds":`, `"durationSeconds":1e-400,"x":`}, {`"durationSeconds":`, `"durationSeconds":0x10,"x":`},
		{`"durationSeconds":`, `"durationSeconds":NaN,"x":`}, {`"durationSeconds":`, `"durationSeconds":"1","x":`},
		{`"durationSeconds":`, `"durationSeconds":1_0,"x":`}, {`"durationSeconds":`, `"durationSeconds":-,"x":`},
		// strings json unescapes, replaces or rejects
		{`"hash":"name-3"`, `"hash":"nAme"`}, {`"hash":"name-3"`, "\"hash\":\"na\x01me\""},
		{`"hash":"name-3"`, "\"hash\":\"na\xffme\""}, {`"hash":"name-3"`, "\"hash\":\"na me\""},
		{`"hash":"name-3"`, `"hash":"na\/me"`}, {`"hash":"name-3"`, `"hash":7`},
		{`"hash":"name-3"`, "\"hash\":\"na\u2028me\""},
		// booleans
		{`"firstDeathValid":true`, `"firstDeathValid":1`}, {`"networkDead":true`, `"networkDead":"true"`},
		{`"networkDead":true`, `"networkDead":null`}, {`"firstDeathValid":true`, `"firstDeathValid":false`},
		{`"networkDead":true`, `"networkDead":tru`},
		// an omitempty field written with its empty value
		{`"campaign":"name-2"`, `"campaign":""`}, {`"firstDeathSeconds":`, `"firstDeathSeconds":0,"x":`},
	}
	for _, v := range variants {
		if !strings.Contains(canon, v.old) {
			t.Fatalf("seed variant %q: the canonical line has no %q", v.new, v.old)
		}
		lines = append(lines, []byte(strings.Replace(canon, v.old, v.new, 1)))
	}
	return lines
}

// FuzzRecordDecode: for any input, decodeRecord fails exactly when
// json.Unmarshal into a fresh Record does, and otherwise returns the
// same Record, float bits included. A line that is exactly what PutBatch
// writes for the record it holds must take the direct parse, unless
// JSON escaped one of its names.
func FuzzRecordDecode(f *testing.F) {
	for _, line := range decodeSeedLines(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, fast, err := decodeRecord(line)
		var want Record
		wantErr := json.Unmarshal(line, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeRecord(%q): err = %v (fast %v), json.Unmarshal err = %v", line, err, fast, wantErr)
		}
		if err != nil {
			return
		}
		if !sameRecord(got, want) {
			t.Fatalf("decodeRecord(%q) (fast %v) =\n%+v\njson.Unmarshal =\n%+v", line, fast, got, want)
		}
		if !fast && bytes.IndexByte(line, '\\') < 0 && bytes.Equal(line, encodeLine(t, want)) {
			t.Fatalf("canonical line %q fell back to json.Unmarshal", line)
		}
	})
}

// referenceKey is the fmt.Sprintf form of a key's rendering that every
// existing segment's bloom filter was built from.
func referenceKey(k Key) string {
	return fmt.Sprintf("%s/%s/%s/%d",
		url.PathEscape(k.Hash), url.PathEscape(k.Scenario), url.PathEscape(k.Protocol), k.Seed)
}

// TestKeyStringBytes: Key.String renders exactly the bytes of the
// fmt.Sprintf form every existing segment's bloom filter was built
// from, on names that need escaping.
func TestKeyStringBytes(t *testing.T) {
	names := []string{
		"", "plain", "a/b", "x y", "<&>", "é", "100%", "a?b#c", "a;b,c", "~-_.", "$&+:=@",
		"tab\t", "nul\x00", "\xff", "日本", `q"uote`, `back\slash`, "%2F", strings.Repeat("é/", 40),
	}
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		for i, n := range names {
			k := Key{Hash: n, Scenario: names[(i+1)%len(names)], Protocol: names[(i+2)%len(names)], Seed: seed}
			if got, want := k.String(), referenceKey(k); got != want {
				t.Errorf("%#v.String() = %q, want %q", k, got, want)
			}
		}
	}
}

// TestReopenDecodesDirectly: reopening a store the package wrote (three
// or more segments and a tail) loads no segment index, since the tail's
// seeds fall outside every segment's range and the footer's count needs
// no recount. Asking Has for every key then loads each segment index
// exactly once, from its key block: the only record lines decoded in
// all are the tail's, and none goes through json.Unmarshal.
func TestReopenDecodesDirectly(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	names := []string{"a/b", "x y", "é", "node-churn"}
	var keys []Key
	for i := range 23 {
		r := rec(i)
		r.Scenario = names[i%len(names)]
		if err := s.PutBatch([]Record{r}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, r.Key())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openSmall(t, dir)
	defer s.Close()
	st := s.Stats()
	if st.Segments < 3 || st.ActiveRecords == 0 || st.SegmentLoads != 0 {
		t.Fatalf("store shape %+v, want 3 or more segments, a tail and no segment load", st)
	}
	for _, k := range keys {
		if !s.Has(k) {
			t.Fatalf("Has(%v) = false after reopen", k)
		}
	}
	st = s.Stats()
	if s.decodes != uint64(st.ActiveRecords) || s.jsonDecodes != 0 || st.SegmentLoads != uint64(st.Segments) {
		t.Fatalf("reopen + Has(all): %d lines decoded, %d through json.Unmarshal, %d segment loads of %d segments; want %d, 0, %d",
			s.decodes, s.jsonDecodes, st.SegmentLoads, st.Segments, st.ActiveRecords, st.Segments)
	}
}

// BenchmarkDecodeRecord decodes one typical stored line directly and
// through json.Unmarshal.
func BenchmarkDecodeRecord(b *testing.B) {
	line := encodeLine(b, rec(7))
	b.Run("direct", func(b *testing.B) {
		for b.Loop() {
			if _, fast, err := decodeRecord(line); !fast || err != nil {
				b.Fatal(fast, err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		for b.Loop() {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReopenHasAll opens a store of 4,200 cells (three segments
// and a tail) and asks Has for every key, which is the store's part of
// a service start or takeover: the tail's records are decoded once, and
// each segment's key index is parsed once from its key block, with no
// record of a segment decoded. It reports the time per stored cell.
func BenchmarkReopenHasAll(b *testing.B) {
	const cells = 4200
	dir := b.TempDir()
	opts := Options{SegmentBytes: 512 << 10}
	s, err := OpenWith(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]Key, 0, cells)
	batch := make([]Record, 0, 100)
	for i := range cells {
		r := rec(i)
		batch = append(batch, r)
		keys = append(keys, r.Key())
		if len(batch) == cap(batch) {
			if err := s.PutBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		s, err := OpenWith(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if !s.Has(k) {
				b.Fatalf("Has(%v) = false", k)
			}
		}
		s.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*cells), "us/cell")
}
