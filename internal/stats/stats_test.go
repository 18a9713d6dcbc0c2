package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestStreamZeroSamples(t *testing.T) {
	var s Stream
	if s.Count() != 0 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 0 {
		t.Fatalf("empty mean = %v, want 0 (Welford legacy)", s.Mean())
	}
	for name, v := range map[string]float64{
		"SampleVariance": s.SampleVariance(),
		"SampleStdDev":   s.SampleStdDev(),
		"StdErr":         s.StdErr(),
		"CI95":           s.CI95(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %v, want NaN", name, v)
		}
	}
}

// One sample: the mean is defined, the CI is not (NaN policy: one
// replicate carries no dispersion information).
func TestStreamOneSample(t *testing.T) {
	var s Stream
	s.Add(42)
	if s.Mean() != 42 || s.Count() != 1 {
		t.Fatalf("mean/count = %v/%d", s.Mean(), s.Count())
	}
	if !math.IsNaN(s.SampleVariance()) {
		t.Errorf("one-sample variance = %v, want NaN", s.SampleVariance())
	}
	if !math.IsNaN(s.CI95()) {
		t.Errorf("one-sample CI = %v, want NaN", s.CI95())
	}
	h := s.CIHalfWidth(0.95)
	if lo, hi := s.Mean()-h, s.Mean()+h; !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("one-sample CI bounds = (%v, %v), want NaN", lo, hi)
	}
}

// A constant series has variance exactly 0 (not just approximately:
// every Welford delta is 0) and therefore a CI of exactly ±0.
func TestStreamConstantSeries(t *testing.T) {
	var s Stream
	for i := 0; i < 1000; i++ {
		s.Add(3.7)
	}
	if v := s.SampleVariance(); v != 0 {
		t.Fatalf("constant-series sample variance = %v, want exactly 0", v)
	}
	if h := s.CI95(); h != 0 {
		t.Fatalf("constant-series CI half width = %v, want exactly 0", h)
	}
	if s.Min() != 3.7 || s.Max() != 3.7 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// Property: Welford agrees with the naive two-pass implementation on
// random data.
func TestWelfordMatchesTwoPass(t *testing.T) {
	check := func(xs []float64) bool {
		var vals []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				vals = append(vals, x)
			}
		}
		if len(vals) < 2 {
			return true
		}
		var s Stream
		var sum float64
		for _, x := range vals {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, x := range vals {
			ss += (x - mean) * (x - mean)
		}
		sampleVar := ss / float64(len(vals)-1)
		scale := math.Max(1, sampleVar)
		return math.Abs(s.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.SampleVariance()-sampleVar) < 1e-6*scale
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TCritical against the standard t-table (two-sided 95% and 99%).
func TestTCriticalTable(t *testing.T) {
	cases := []struct {
		conf float64
		df   int
		want float64
	}{
		{0.95, 1, 12.7062},
		{0.95, 2, 4.3027},
		{0.95, 4, 2.7764},
		{0.95, 9, 2.2622},
		{0.95, 29, 2.0452},
		{0.95, 100, 1.9840},
		{0.95, 10000, 1.9602}, // ≈ normal 1.9600
		{0.99, 4, 4.6041},
		{0.99, 9, 3.2498},
		{0.90, 9, 1.8331},
	}
	for _, c := range cases {
		got := TCritical(c.conf, c.df)
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("TCritical(%v, %d) = %.4f, want %.4f", c.conf, c.df, got, c.want)
		}
	}
}

func TestTCriticalInvalid(t *testing.T) {
	for _, v := range []float64{TCritical(0.95, 0), TCritical(0, 5), TCritical(1, 5), TCritical(-1, 5)} {
		if !math.IsNaN(v) {
			t.Errorf("invalid TCritical input = %v, want NaN", v)
		}
	}
}

// The CI must cover the true mean at roughly the nominal rate. With 200
// independent replications of n=10 normal samples, the 95% CI's
// coverage is Binomial(200, 0.95): the [176, 198] acceptance band has
// a false-failure probability under 1e-4, and the RNG is fixed-seed.
func TestCICoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const reps, n, mu = 200, 10, 3.0
	covered := 0
	for r := 0; r < reps; r++ {
		var s Stream
		for i := 0; i < n; i++ {
			s.Add(mu + rng.NormFloat64())
		}
		if h := s.CIHalfWidth(0.95); s.Mean()-h <= mu && mu <= s.Mean()+h {
			covered++
		}
	}
	if covered < 176 || covered > 198 {
		t.Fatalf("95%% CI covered the true mean %d/200 times", covered)
	}
}

// P² against the exact sorted-sample quantile on random data.
func TestQuantileMatchesSorted(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		rng := rand.New(rand.NewSource(int64(1000 * p)))
		q := NewQuantile(p)
		const n = 20000
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			q.Add(x)
			xs = append(xs, x)
		}
		sort.Float64s(xs)
		exact := xs[int(p*float64(n-1))]
		// Tolerance in value space: a small multiple of the quantile's
		// sampling noise at this n, generous for the tail quantiles.
		if diff := math.Abs(q.Value() - exact); diff > 0.05 {
			t.Errorf("P²(%.2f) = %.4f, exact %.4f (|diff| = %.4f)", p, q.Value(), exact, diff)
		}
	}
}

func TestQuantileSmallStreams(t *testing.T) {
	q := NewQuantile(0.5)
	if !math.IsNaN(q.Value()) {
		t.Fatalf("empty quantile = %v, want NaN", q.Value())
	}
	q.Add(10)
	if q.Value() != 10 {
		t.Fatalf("1-sample median = %v", q.Value())
	}
	q.Add(20)
	if q.Value() != 15 {
		t.Fatalf("2-sample median = %v, want 15 (interpolated)", q.Value())
	}
	// Exactly five observations: markers initialize from the sorted
	// buffer, the median is the middle one.
	q2 := NewQuantile(0.5)
	for _, x := range []float64{5, 1, 4, 2, 3} {
		q2.Add(x)
	}
	if q2.Value() != 3 {
		t.Fatalf("5-sample median = %v, want 3", q2.Value())
	}
	if q2.n != 5 {
		t.Fatalf("count = %d", q2.n)
	}
	// A tail quantile must not collapse to the median when the 5th
	// observation arrives: at n == 5 the buffer is still the exact
	// sorted sample, so p95 of {1..5} interpolates between 4 and 5.
	q3 := NewQuantile(0.95)
	for _, x := range []float64{1, 2, 3, 4} {
		q3.Add(x)
	}
	before := q3.Value() // exact: 1 + 0.95*3 = 3.85
	q3.Add(5)
	if got := q3.Value(); got < before {
		t.Fatalf("p95 fell from %v to %v when the 5th (maximum) sample arrived", before, got)
	}
	if want := 4.8; math.Abs(q3.Value()-want) > 1e-12 {
		t.Fatalf("5-sample p95 = %v, want %v (exact interpolation)", q3.Value(), want)
	}
}

func TestQuantileConstantStream(t *testing.T) {
	q := NewQuantile(0.95)
	for i := 0; i < 100; i++ {
		q.Add(2.5)
	}
	if q.Value() != 2.5 {
		t.Fatalf("constant-stream p95 = %v, want 2.5", q.Value())
	}
}

// The Add paths must not allocate: these accumulators sit in the
// simulation hot path (per-packet delay tracking) and in tight
// aggregation loops.
func TestAddPathsDoNotAllocate(t *testing.T) {
	var s Stream
	if avg := testing.AllocsPerRun(1000, func() { s.Add(1.5) }); avg != 0 {
		t.Errorf("Stream.Add allocates %.1f times per call", avg)
	}
	q := NewQuantile(0.95)
	x := 0.0
	if avg := testing.AllocsPerRun(1000, func() { x += 0.7; q.Add(x) }); avg != 0 {
		t.Errorf("Quantile.Add allocates %.1f times per call", avg)
	}
}

func BenchmarkStreamAdd(b *testing.B) {
	var s Stream
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
	if s.Count() == 0 {
		b.Fatal("no samples")
	}
}

func BenchmarkQuantileAdd(b *testing.B) {
	q := NewQuantile(0.95)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Add(float64(i % 1000))
	}
	if q.n == 0 {
		b.Fatal("no samples")
	}
}

func BenchmarkTCritical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := TCritical(0.95, 1+i%50); v <= 0 {
			b.Fatal("bad critical value")
		}
	}
}
