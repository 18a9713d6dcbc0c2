package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
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
