// Package geom provides the 2-D geometry primitives used to lay out the
// sensor field: points, distances, and node-placement strategies.
package geom

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Point is a position on the sensor field, in meters.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q in meters.
func (p Point) Distance(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Field is the rectangular testing field, anchored at the origin.
type Field struct {
	Width, Height float64 // meters
}

// Contains reports whether p lies inside the field (inclusive borders).
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}

// PlaceUniformInto scatters n points independently and uniformly over
// the field, the deployment model used in the paper ("sensors are
// deployed in a forest or battlefield"). It writes into dst (appended
// from length zero), so a reused simulation context re-places its
// geometry without reallocating.
func PlaceUniformInto(dst []Point, f Field, n int, r *rng.Stream) []Point {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, Point{X: r.Float64() * f.Width, Y: r.Float64() * f.Height})
	}
	return dst
}

// Nearest returns the index of the candidate nearest to p, and the
// distance. It panics on an empty candidate list.
func Nearest(p Point, candidates []Point) (int, float64) {
	if len(candidates) == 0 {
		panic("geom: Nearest with no candidates")
	}
	best := 0
	bestD := p.Distance(candidates[0])
	for i := 1; i < len(candidates); i++ {
		if d := p.Distance(candidates[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
