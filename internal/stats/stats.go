package stats

import "math"

// Welford is a numerically stable online accumulator for mean and
// population variance, with min/max tracking. It is the shared base of
// the simulation metrics (which describe a complete population of
// packets or snapshots) and of Stream (which adds the sample-statistics
// view for replicated experiments).
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add accumulates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Stream extends Welford with the inferential view a replicated
// experiment needs: unbiased (n−1) sample variance, the standard error
// of the mean, and Student-t confidence intervals. The zero value is
// ready to use; Add is inherited from Welford and allocation-free.
type Stream struct {
	Welford
}

// SampleVariance returns the unbiased sample variance m2/(n−1), or NaN
// for fewer than two observations (undefined, per the package policy).
func (s *Stream) SampleVariance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// SampleStdDev returns the square root of SampleVariance (NaN for
// fewer than two observations).
func (s *Stream) SampleStdDev() float64 { return math.Sqrt(s.SampleVariance()) }

// StdErr returns the standard error of the mean, s/√n (NaN for fewer
// than two observations).
func (s *Stream) StdErr() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.SampleStdDev() / math.Sqrt(float64(s.n))
}

// CIHalfWidth returns the half width of the two-sided confidence
// interval for the mean at the given confidence level (e.g. 0.95):
// t*(conf, n−1) · s/√n. NaN for fewer than two observations; exactly 0
// for a constant series.
func (s *Stream) CIHalfWidth(conf float64) float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return TCritical(conf, int(s.n)-1) * s.StdErr()
}

// CI95 returns CIHalfWidth(0.95) — the experiment tables' "±" column.
func (s *Stream) CI95() float64 { return s.CIHalfWidth(0.95) }
