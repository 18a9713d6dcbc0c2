package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// Stream accumulates sample statistics for replicated experiments:
// unbiased dispersion and Student-t confidence intervals.
func ExampleStream() {
	var s stats.Stream
	for _, v := range []float64{10, 11, 12, 13} {
		s.Add(v)
	}
	fmt.Printf("n=%d mean=%.2f sd=%.3f ci95=%.3f\n", s.Count(), s.Mean(), s.SampleStdDev(), s.CI95())
	// Output:
	// n=4 mean=11.50 sd=1.291 ci95=2.054
}

// Welford tracks the mean with min/max, allocation-free — the base of
// every simulation metric.
func ExampleWelford() {
	var w stats.Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	fmt.Printf("mean=%.1f min=%.0f max=%.0f\n", w.Mean(), w.Min(), w.Max())
	// Output:
	// mean=5.0 min=2 max=9
}

// Quantile is the P² estimator: any single quantile in O(1) memory.
func ExampleQuantile() {
	const n = 100
	q := stats.NewQuantile(0.95)
	for v := 1; v <= n; v++ {
		q.Add(float64(v))
	}
	fmt.Printf("p95 of 1..100 ~ %.0f (from %d observations)\n", q.Value(), n)
	// Output:
	// p95 of 1..100 ~ 95 (from 100 observations)
}

// A single-replicate sample carries no dispersion information: the
// sample statistics are NaN, never a misleading zero.
func ExampleStream_nanPolicy() {
	var s stats.Stream
	s.Add(42)
	fmt.Printf("mean=%.0f sd=%.0f ci95=%.0f\n", s.Mean(), s.SampleStdDev(), s.CI95())
	// Output:
	// mean=42 sd=NaN ci95=NaN
}
