package store

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// bloom is the per-segment key membership filter carried in a segment
// footer. It answers "might this segment hold the key?" in O(1) so that
// point lookups, PutBatch's check for a held key among them, touch only
// the segments a key can live in — the per-partition pruning that keeps
// read work proportional to the touched partition rather than the whole
// store.
//
// Sizing is ~10 bits per key with 6 probes (double hashing over one
// FNV-64a pass), which puts the false-positive rate near 1%: a false
// positive costs one lazy segment-index load, never a wrong answer.
type bloom struct {
	m    uint64 // filter size in bits
	k    int    // probes per key
	bits []uint64
}

const (
	bloomBitsPerKey = 10
	bloomProbes     = 6
	bloomMinBits    = 64
)

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloom {
	m := uint64(n * bloomBitsPerKey)
	if m < bloomMinBits {
		m = bloomMinBits
	}
	m = (m + 63) &^ 63 // whole words
	return &bloom{m: m, k: bloomProbes, bits: make([]uint64, m/64)}
}

// hashes derives the two double-hashing bases for a key.
func bloomHashes(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	// Mix for an independent-enough second base; the constant is the
	// 64-bit golden ratio used by Fibonacci hashing.
	h2 := (h1 ^ (h1 >> 29)) * 0x9E3779B97F4A7C15
	h2 ^= h2 >> 32
	if h2 == 0 {
		h2 = 0x9E3779B97F4A7C15
	}
	return h1, h2
}

// add inserts a key.
func (b *bloom) add(key string) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.m
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// has reports whether the key might be present (false = definitely not).
func (b *bloom) has(key string) bool {
	if b == nil || b.m == 0 {
		return true // absent filter cannot exclude anything
	}
	h1, h2 := bloomHashes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.m
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// bloomJSON is the wire form stored in segment footers: dimensions plus
// the bit array as base64 of little-endian 64-bit words.
type bloomJSON struct {
	M uint64 `json:"m"`
	K int    `json:"k"`
	B string `json:"b"`
}

func (b *bloom) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 8*len(b.bits))
	for i, w := range b.bits {
		binary.LittleEndian.PutUint64(raw[8*i:], w)
	}
	return json.Marshal(bloomJSON{M: b.m, K: b.k, B: base64.StdEncoding.EncodeToString(raw)})
}

func (b *bloom) UnmarshalJSON(data []byte) error {
	var v bloomJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(v.B)
	if err != nil {
		return fmt.Errorf("bloom bits: %w", err)
	}
	if v.M == 0 || v.M%64 != 0 || uint64(len(raw)) != v.M/8 || v.K <= 0 || v.K > 64 {
		return fmt.Errorf("bloom dimensions inconsistent (m=%d k=%d bytes=%d)", v.M, v.K, len(raw))
	}
	b.m, b.k = v.M, v.K
	b.bits = make([]uint64, v.M/64)
	for i := range b.bits {
		b.bits[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return nil
}
