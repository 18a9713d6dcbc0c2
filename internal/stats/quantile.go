package stats

import "math"

// Quantile estimates one quantile of a stream in constant memory with
// the P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// running quantile with parabolic interpolation, so the estimator costs
// O(1) time and zero allocation per observation regardless of stream
// length. Exact for the first five observations; within the
// algorithm's published accuracy (a fraction of the local probability
// density) afterwards.
//
// Set P in (0, 1) before the first Add — NewQuantile does — and do not
// change it afterwards. Value of an empty stream is NaN.
type Quantile struct {
	// P is the target quantile (0.95 estimates the 95th percentile).
	P float64

	n   int        // observations seen
	h   [5]float64 // marker heights
	pos [5]float64 // actual marker positions (1-based ranks)
	des [5]float64 // desired marker positions
}

// NewQuantile returns an estimator for the p-quantile.
func NewQuantile(p float64) Quantile { return Quantile{P: p} }

// Add accumulates one observation.
func (q *Quantile) Add(x float64) {
	if q.n < 5 {
		// Insertion-sort the first five observations in place.
		i := q.n
		for i > 0 && q.h[i-1] > x {
			q.h[i] = q.h[i-1]
			i--
		}
		q.h[i] = x
		q.n++
		if q.n == 5 {
			p := q.P
			q.pos = [5]float64{1, 2, 3, 4, 5}
			q.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}

	// Locate the cell k with h[k] <= x < h[k+1], extending the extremes.
	var k int
	switch {
	case x < q.h[0]:
		q.h[0] = x
		k = 0
	case x >= q.h[4]:
		q.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	q.n++
	p := q.P
	q.des[1] += p / 2
	q.des[2] += p
	q.des[3] += (1 + p) / 2
	q.des[4]++

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.des[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			hp := q.parabolic(i, sign)
			if q.h[i-1] < hp && hp < q.h[i+1] {
				q.h[i] = hp
			} else {
				q.h[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one rank in direction sign.
func (q *Quantile) parabolic(i int, sign float64) float64 {
	return q.h[i] + sign/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+sign)*(q.h[i+1]-q.h[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-sign)*(q.h[i]-q.h[i-1])/(q.pos[i]-q.pos[i-1]))
}

// linear is the fallback height prediction when the parabola would
// leave the bracketing markers' range.
func (q *Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return q.h[i] + sign*(q.h[j]-q.h[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate: NaN when empty, the
// exact (interpolated) sample quantile through the first five
// observations (at n == 5 the marker heights still are the complete
// sorted sample), and the P² center-marker height after.
func (q *Quantile) Value() float64 {
	switch {
	case q.n == 0:
		return math.NaN()
	case q.n <= 5:
		// h[:n] is sorted; interpolate the sample quantile.
		idx := q.P * float64(q.n-1)
		lo := int(idx)
		if lo >= q.n-1 {
			return q.h[q.n-1]
		}
		frac := idx - float64(lo)
		return q.h[lo] + frac*(q.h[lo+1]-q.h[lo])
	default:
		return q.h[2]
	}
}
