package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).Stream("test", 7)
	b := NewSource(42).Stream("test", 7)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}

func TestStreamIndependenceByID(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("test", 1)
	b := src.Stream("test", 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different ids produced %d identical 64-bit draws in 1000", same)
	}
}

func TestStreamIndependenceByKind(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("alpha", 1)
	b := src.Stream("beta", 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams with different kinds produced identical first draws")
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a := NewSource(1).Stream("x", 0)
	b := NewSource(2).Stream("x", 0)
	if a.Uint64() == b.Uint64() {
		t.Fatal("different master seeds produced identical first draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewSource(3).Stream("f", 0)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewSource(4).Stream("f", 0)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewSource(5).Stream("i", 0)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewSource(6).Stream("i", 0)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want %v ± 5%%", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewSource(7).Stream("i", 0)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewSource(8).Stream("e", 0)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewSource(9).Stream("n", 0)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewSource(10).Stream("p", 0)
	for _, mean := range []float64{0.5, 3, 10, 50, 200} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		// Tolerance ~4 standard errors of the mean.
		tol := 4 * math.Sqrt(mean/float64(n))
		if math.Abs(got-mean) > tol+0.01*mean {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := NewSource(11).Stream("p", 0)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Poisson(-1) did not panic")
			}
		}()
		r.Poisson(-1)
	}()
}

// Property: any (kind, id) pair yields a usable, non-degenerate stream.
func TestStreamNeverDegenerate(t *testing.T) {
	src := NewSource(0) // adversarial master seed
	check := func(id uint64, kind string) bool {
		s := src.Stream(kind, id)
		zero := 0
		for i := 0; i < 64; i++ {
			if s.Uint64() == 0 {
				zero++
			}
		}
		return zero < 3
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := NewSource(1).Stream("bench", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := NewSource(1).Stream("bench", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
