package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDistance(t *testing.T) {
	cases := []struct {
		p, q Point
		d    float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 5}, 4},
		{Point{-2, 0}, Point{2, 0}, 4},
	}
	for _, c := range cases {
		if got := c.p.Distance(c.q); math.Abs(got-c.d) > 1e-12 {
			t.Errorf("Distance(%v, %v) = %v, want %v", c.p, c.q, got, c.d)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	check := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Distance(b) == b.Distance(a)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldContains(t *testing.T) {
	f := Field{Width: 100, Height: 50}
	for _, p := range []Point{{0, 0}, {100, 50}, {50, 25}} {
		if !f.Contains(p) {
			t.Errorf("field should contain %v", p)
		}
	}
	for _, p := range []Point{{-1, 0}, {101, 0}, {0, 51}, {50, -0.1}} {
		if f.Contains(p) {
			t.Errorf("field should not contain %v", p)
		}
	}
}

func TestPlaceUniformInField(t *testing.T) {
	f := Field{Width: 100, Height: 100}
	r := rng.NewSource(1).Stream("place", 0)
	pts := PlaceUniformInto(nil, f, 1000, r)
	if len(pts) != 1000 {
		t.Fatalf("placed %d points, want 1000", len(pts))
	}
	var sx, sy float64
	for _, p := range pts {
		if !f.Contains(p) {
			t.Fatalf("point %v outside field", p)
		}
		sx += p.X
		sy += p.Y
	}
	if math.Abs(sx/1000-50) > 3 || math.Abs(sy/1000-50) > 3 {
		t.Errorf("placement centroid (%v, %v) far from field center", sx/1000, sy/1000)
	}
}

func TestPlaceUniformDeterministic(t *testing.T) {
	f := Field{Width: 100, Height: 100}
	a := PlaceUniformInto(nil, f, 50, rng.NewSource(9).Stream("place", 0))
	b := PlaceUniformInto(nil, f, 50, rng.NewSource(9).Stream("place", 0))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNearest(t *testing.T) {
	cands := []Point{{0, 0}, {10, 0}, {5, 5}}
	idx, d := Nearest(Point{9, 1}, cands)
	if idx != 1 {
		t.Fatalf("Nearest index = %d, want 1", idx)
	}
	if math.Abs(d-math.Hypot(1, 1)) > 1e-12 {
		t.Fatalf("Nearest distance = %v", d)
	}
}

func TestNearestSinglCandidate(t *testing.T) {
	idx, d := Nearest(Point{3, 4}, []Point{{0, 0}})
	if idx != 0 || math.Abs(d-5) > 1e-12 {
		t.Fatalf("Nearest = (%d, %v)", idx, d)
	}
}

func TestNearestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nearest with no candidates did not panic")
		}
	}()
	Nearest(Point{}, nil)
}

// Property: the reported nearest candidate is never beaten by another.
func TestNearestIsMinimal(t *testing.T) {
	r := rng.NewSource(2).Stream("near", 0)
	check := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		cands := make([]Point, n)
		for i := range cands {
			cands[i] = Point{r.Float64() * 100, r.Float64() * 100}
		}
		p := Point{r.Float64() * 100, r.Float64() * 100}
		idx, d := Nearest(p, cands)
		for _, c := range cands {
			if p.Distance(c) < d-1e-12 {
				return false
			}
		}
		return p.Distance(cands[idx]) == d
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
