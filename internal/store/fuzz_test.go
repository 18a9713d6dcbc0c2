package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzKeyRoundTrip: for any key that validates, parsing its rendering
// gives the key back, and the rendering is byte for byte the form every
// segment's bloom filter hashes (referenceKey). A roll parses each tail
// key back this way for its footer's key ranges.
func FuzzKeyRoundTrip(f *testing.F) {
	for _, name := range []string{"/", "%", "+", " ", "a b", "<&>", "é", "\xff", "\xc3(", "%2F", "a/b%c+d e", "//"} {
		f.Add("0123456789abcdef", name, "CAEM-scheme1", uint64(7))
		f.Add(name, "storm", name, uint64(math.MaxUint64))
	}
	f.Fuzz(func(t *testing.T, hash, scenario, protocol string, seed uint64) {
		k := Key{Hash: hash, Scenario: scenario, Protocol: protocol, Seed: seed}
		if k.validate() != nil {
			return
		}
		ks := k.String()
		if want := referenceKey(k); ks != want {
			t.Fatalf("%#v renders %q, want %q", k, ks, want)
		}
		back, err := parseKey(ks)
		if err != nil {
			t.Fatalf("parseKey(%q): %v", ks, err)
		}
		if back != k {
			t.Fatalf("parseKey(%q) = %#v, want %#v", ks, back, k)
		}
	})
}

// FuzzStoreReopen drives a store through a decoded sequence of puts,
// re-puts, mixed batches and reopens, and after every reopen checks it
// against a map model of first writes: Len equals the model's size, and
// every Get returns the first write of its key. Each input byte is one step; b%5 picks the step and b/5 is
// its argument:
//
//	0 put a new key
//	1 re-put an existing key (the argument picks which) with other
//	  numbers; the tail must not grow
//	2 put one batch of an existing key (the argument picks which), a new
//	  key, and the new key again with other numbers
//	3 clean reopen: Close, then open again
//	4 crash-reopen: abandon the handle without Close, then open again.
//	  With an odd argument, right after a roll, the tail the roll
//	  truncated is first restored from the new segment: the crash window
//	  between publishing a segment and truncating the tail.
//
// The corpus entry compact-then-crash was recorded when step 2 ran a
// compaction; it now crash-reopens after a mixed batch.
func FuzzStoreReopen(f *testing.F) {
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		dir := t.TempDir()
		open := func() *Store {
			s, err := OpenWith(dir, Options{SegmentBytes: smallSeg})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s := open()
		defer func() { s.Close() }()

		model := make(map[Key]Record)
		var keys []Key
		check := func(step int) {
			t.Helper()
			if got := s.Len(); got != len(model) {
				t.Fatalf("step %d: Len = %d, want %d", step, got, len(model))
			}
			for k, want := range model {
				got, ok, err := s.Get(k)
				if err != nil || !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Get(%v) = %+v ok=%v err=%v, want %+v", step, k, got, ok, err, want)
				}
			}
		}
		fresh := func() Record {
			r := rec(len(keys))
			keys = append(keys, r.Key())
			return r
		}
		// held returns a copy of an existing key's record with other
		// numbers, or a new key's record when there is none yet.
		held := func(i, arg int) Record {
			if len(keys) == 0 {
				return fresh()
			}
			r := model[keys[arg%len(keys)]]
			r.Summary.Delivered = uint64(1000 + i)
			return r
		}

		rolled := false
		for i, b := range steps {
			op, arg := b%5, int(b/5)
			rolls := s.Stats().Rolls
			switch op {
			case 0, 1, 2:
				var batch []Record
				switch op {
				case 0:
					batch = []Record{fresh()}
				case 1:
					batch = []Record{held(i, arg)}
				case 2:
					h := held(i, arg)
					r := fresh()
					again := r
					again.Summary.Delivered = uint64(2000 + i)
					batch = []Record{h, r, again}
				}
				reput := op == 1 && len(model) > 0
				size := s.Stats().ActiveBytes
				if err := s.PutBatch(batch); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if got := s.Stats().ActiveBytes; reput && got != size {
					t.Fatalf("step %d: re-put grew the tail from %d to %d bytes", i, size, got)
				}
				for _, r := range batch {
					if _, ok := model[r.Key()]; !ok {
						r.V = recordVersion
						model[r.Key()] = r
					}
				}
			case 3, 4:
				if op == 3 {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					// Close the files as a dying process would, without Close.
					s.f.Close()
					for _, g := range s.segs {
						g.closeHandle()
					}
					if arg%2 == 1 && rolled {
						newest := s.segs[len(s.segs)-1]
						blob, err := os.ReadFile(newest.path)
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(filepath.Join(dir, dataFile), blob[:newest.footer.DataSize], 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				s = open()
				rolls = 0
				check(i)
			}
			st := s.Stats()
			rolled = st.Rolls > rolls && st.ActiveRecords == 0
		}
		check(len(steps))
	})
}

// tailOf builds a tail for FuzzSegmentKeys from arbitrary bytes: each
// non-empty line of b becomes one record line, and the scenario of its
// key. A line repeated later supersedes the earlier copy, as in a tail
// written before puts became write-once.
func tailOf(b []byte) (data []byte, index map[string]indexEntry) {
	index = make(map[string]indexEntry)
	for _, name := range bytes.Split(b, []byte{'\n'}) {
		if len(name) == 0 {
			continue
		}
		k := Key{Hash: "0123456789abcdef", Scenario: string(name), Protocol: "CAEM-scheme1", Seed: uint64(len(name))}
		index[k.String()] = indexEntry{Off: int64(len(data)), Len: int32(len(name) + 1)}
		data = append(append(data, name...), '\n')
	}
	return data, index
}

// FuzzSegmentKeys: parseKeyBlock returns an index or an error for any
// bytes, record count and region size, and never panics, and an index
// it returns renders back to exactly the bytes it parsed. The key block
// a roll writes (sealIndex, then appendKeyBlock) for a tail built from
// the same bytes parses back to exactly the roll's index.
func FuzzSegmentKeys(f *testing.F) {
	for _, names := range []string{"a/b\nx y\n<&>\né\nnode-churn\na/b\n", "storm", "\xff\n%2F\n \n+\n"} {
		data, tail := tailOf([]byte(names))
		x := sealIndex(data, tail)
		f.Add(appendKeyBlock(nil, x), len(x), int64(len(data)))
	}
	data, tail := tailOf([]byte("a\nb\nc\n"))
	x := sealIndex(data, tail)
	block := string(appendKeyBlock(nil, x))
	first, _, _ := strings.Cut(block, "\n")
	fields := strings.Fields(first)
	for _, v := range []struct{ old, new string }{
		{first, first + " 7"},                           // a fifth field
		{first, strings.Replace(first, " ", "  ", 1)},   // two spaces
		{first, " " + first},                            // an empty key
		{" " + fields[1] + " ", " 0" + fields[1] + " "}, // a leading zero
		{" " + fields[1] + " ", " -" + fields[1] + " "}, // a sign
		{" " + fields[2] + " ", " 0 "},                  // an empty line
		{" " + fields[2] + " ", " 99999999999 "},        // past the region
		{" " + fields[3], " 4294967296"},                // a 33-bit crc
		{" " + fields[3], " 99999999999999999999"},      // past uint64
		{first + "\n", ""},                              // a key missing
		{first + "\n", first + "\n" + first + "\n"},     // a key twice
		{block, strings.TrimSuffix(block, "\n")},        // no final newline
		{block, block[len(first)+1:] + first + "\n"},    // out of order
	} {
		if !strings.Contains(block, v.old) {
			f.Fatalf("seed variant %q: the block has no %q", v.new, v.old)
		}
		bad := []byte(strings.Replace(block, v.old, v.new, 1))
		if _, err := parseKeyBlock(bad, len(x), int64(len(data))); err == nil {
			f.Fatalf("seed variant %q parses", bad)
		}
		f.Add(bad, len(x), int64(len(data)))
	}
	f.Add([]byte(block), len(x)+1, int64(len(data))) // a key short
	f.Add([]byte(block), len(x), int64(-1))          // no record region
	f.Fuzz(func(t *testing.T, block []byte, records int, dataSize int64) {
		if x, err := parseKeyBlock(block, records, dataSize); err == nil {
			if got := appendKeyBlock(nil, x); !bytes.Equal(got, block) {
				t.Fatalf("parseKeyBlock(%q) = %v, which renders as %q", block, x, got)
			}
		}
		data, tail := tailOf(block)
		x := sealIndex(data, tail)
		back, err := parseKeyBlock(appendKeyBlock(nil, x), len(x), int64(len(data)))
		if err != nil {
			t.Fatalf("the key block of %v does not parse: %v", x, err)
		}
		if !reflect.DeepEqual(back, x) {
			t.Fatalf("the key block of %v parses back as %v", x, back)
		}
	})
}
