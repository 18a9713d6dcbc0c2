package core

import (
	"runtime"
	"testing"
)

// The triangular link matrix holds exactly one slot per unordered pair:
// linkRow[a]+b maps every a<b onto [0, n(n-1)/2) exactly once, and both
// orders of a pair reach the same Link.
func TestPairIndexIsABijection(t *testing.T) {
	for _, n := range []int{2, 3, 64, 100} {
		cfg := testConfig()
		cfg.Nodes = n
		net := New(cfg)
		pairs := n * (n - 1) / 2
		if len(net.links) != pairs || len(net.linkInit) != pairs {
			t.Fatalf("n=%d: %d links and %d init flags, want %d of each", n, len(net.links), len(net.linkInit), pairs)
		}
		seen := make([]bool, pairs)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				idx := net.linkRow[a] + b
				if idx < 0 || idx >= pairs {
					t.Fatalf("n=%d: pair (%d, %d) at index %d, outside [0, %d)", n, a, b, idx, pairs)
				}
				if seen[idx] {
					t.Fatalf("n=%d: pair (%d, %d) shares index %d with another pair", n, a, b, idx)
				}
				seen[idx] = true
			}
		}
		if a, b := 0, n-1; net.linkFor(a, b) != net.linkFor(b, a) {
			t.Fatalf("n=%d: linkFor(%d, %d) and linkFor(%d, %d) differ", n, a, b, b, a)
		}
	}
}

// resetLinksOf(i) clears exactly the n-1 pairs that contain node i and
// leaves every other materialized link in place.
func TestResetLinksOfClearsOnlyItsPairs(t *testing.T) {
	for _, n := range []int{2, 3, 64, 100} {
		cfg := testConfig()
		cfg.Nodes = n
		net := New(cfg)
		for i := 0; i < n; i++ {
			for k := range net.linkInit {
				net.linkInit[k] = true
			}
			net.resetLinksOf(i)
			cleared := 0
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					init := net.linkInit[net.linkRow[a]+b]
					if touches := a == i || b == i; touches == init {
						t.Fatalf("n=%d: after resetLinksOf(%d), pair (%d, %d) materialized = %v", n, i, a, b, init)
					}
					if !init {
						cleared++
					}
				}
			}
			if cleared != n-1 {
				t.Fatalf("n=%d: resetLinksOf(%d) cleared %d pairs, want %d", n, i, cleared, n-1)
			}
		}
	}
}

// Building the Table II world (100 nodes) allocates at most 2 MiB. The
// link matrix is most of it: 4,950 Links of 296 bytes. A dense n×n
// matrix, or a Link that carries its Params again, breaks the cap on any
// machine; oscillator records are allocated as links materialize, so
// they are not counted here.
func TestNewFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	const limit = 2 << 20
	got := after.TotalAlloc - before.TotalAlloc
	if got > limit {
		t.Fatalf("core.New(DefaultConfig()) allocated %d B, cap %d B", got, limit)
	}
	t.Logf("core.New(DefaultConfig()) allocated %d B", got)
}
