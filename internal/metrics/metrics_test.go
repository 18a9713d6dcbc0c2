package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestWelfordBasics(t *testing.T) {
	var w stats.Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w stats.Welford
	if w.Mean() != 0 {
		t.Fatal("empty accumulator not zero")
	}
}

// Property: Welford agrees with the naive two-pass computation.
func TestWelfordMatchesNaive(t *testing.T) {
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
		var w stats.Welford
		var sum float64
		for _, x := range vals {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(vals))
		return math.Abs(w.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Record(0, 10)
	ts.Record(sim.Second, 8)
	ts.Record(2*sim.Second, 6)
	if len(ts.points) != 3 {
		t.Fatalf("len = %d", len(ts.points))
	}
	if v, ok := ts.At(1500 * sim.Millisecond); !ok || v != 8 {
		t.Fatalf("At(1.5s) = (%v, %v), want (8, true)", v, ok)
	}
	if v, ok := ts.At(2 * sim.Second); !ok || v != 6 {
		t.Fatalf("At(2s) = (%v, %v)", v, ok)
	}
	if _, ok := ts.At(-1); ok {
		t.Fatal("At before first sample returned ok")
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Record(sim.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order record did not panic")
		}
	}()
	ts.Record(0, 2)
}

func TestDelayStats(t *testing.T) {
	var d DelayStats
	d.Observe(10 * sim.Millisecond)
	d.Observe(20 * sim.Millisecond)
	d.Observe(30 * sim.Millisecond)
	if d.w.Count() != 3 {
		t.Fatalf("count = %d", d.w.Count())
	}
	if math.Abs(d.MeanMs()-20) > 1e-9 {
		t.Fatalf("mean = %v ms", d.MeanMs())
	}
	if math.Abs(d.MaxMs()-30) > 1e-9 {
		t.Fatalf("max = %v ms", d.MaxMs())
	}
}

func TestFairnessProbe(t *testing.T) {
	var f FairnessProbe
	f.Snapshot([]int{5, 5, 5, 5}) // perfectly fair: stddev 0
	if f.MeanStdDev() != 0 {
		t.Fatalf("uniform queues gave stddev %v", f.MeanStdDev())
	}
	f.Snapshot([]int{0, 10}) // stddev 5
	if math.Abs(f.MeanStdDev()-2.5) > 1e-9 {
		t.Fatalf("mean of snapshot stddevs = %v, want 2.5", f.MeanStdDev())
	}
	if f.snapshots.Count() != 2 {
		t.Fatalf("snapshots = %d", f.snapshots.Count())
	}
	f.Snapshot(nil) // empty snapshots are ignored
	if f.snapshots.Count() != 2 {
		t.Fatal("empty snapshot counted")
	}
}

// Property: fairness of a constant vector is 0; scaling spread increases it.
func TestFairnessMonotoneInSpread(t *testing.T) {
	var a, b FairnessProbe
	a.Snapshot([]int{10, 10, 10, 10, 10, 10})
	b.Snapshot([]int{0, 4, 8, 12, 16, 20})
	if !(a.MeanStdDev() < b.MeanStdDev()) {
		t.Fatal("spread did not increase the fairness index")
	}
}

func TestLifetime(t *testing.T) {
	l := NewLifetime(10)
	if l.Alive() != 10 {
		t.Fatalf("alive = %d", l.Alive())
	}
	if _, ok := l.FirstDeath(); ok {
		t.Fatal("first death reported with no deaths")
	}
	for i := 0; i < 8; i++ {
		l.NodeDied(sim.Time(i+1) * 100 * sim.Second)
	}
	if l.Alive() != 2 {
		t.Fatalf("alive = %d after 8 deaths", l.Alive())
	}
	if at, ok := l.FirstDeath(); !ok || at != 100*sim.Second {
		t.Fatalf("first death = (%v, %v)", at, ok)
	}
	// 80% of 10 = 8 deaths -> the 8th death time.
	at, ok := l.NetworkDeadAt(0.8)
	if !ok || at != 800*sim.Second {
		t.Fatalf("NetworkDeadAt(0.8) = (%v, %v), want 800s", at, ok)
	}
	if _, ok := l.NetworkDeadAt(0.9); ok {
		t.Fatal("network reported dead at 90% with only 8/10 deaths")
	}
}

func TestLifetimeTinyFraction(t *testing.T) {
	l := NewLifetime(100)
	l.NodeDied(5 * sim.Second)
	// Any positive fraction needs at least one death.
	if at, ok := l.NetworkDeadAt(0.001); !ok || at != 5*sim.Second {
		t.Fatalf("NetworkDeadAt(0.001) = (%v, %v)", at, ok)
	}
}

func TestThroughput(t *testing.T) {
	var tr Throughput
	for i := 0; i < 10; i++ {
		tr.PacketGenerated()
	}
	for i := 0; i < 7; i++ {
		tr.PacketDelivered(2000)
	}
	tr.PacketDroppedBuffer()
	tr.PacketDroppedRetry()
	if tr.Generated() != 10 || tr.Delivered() != 7 {
		t.Fatalf("gen/del = %d/%d", tr.Generated(), tr.Delivered())
	}
	if math.Abs(tr.DeliveryRate()-0.7) > 1e-12 {
		t.Fatalf("delivery rate = %v", tr.DeliveryRate())
	}
	// 7 * 2000 bits over 2 s = 7 kbps.
	if got := tr.AggregateKbps(2 * sim.Second); math.Abs(got-7) > 1e-9 {
		t.Fatalf("throughput = %v kbps, want 7", got)
	}
	if tr.DroppedBuffer() != 1 || tr.DroppedRetry() != 1 {
		t.Fatal("drop counters wrong")
	}
}

func TestThroughputZeroWindow(t *testing.T) {
	var tr Throughput
	tr.PacketDelivered(1000)
	if tr.AggregateKbps(0) != 0 {
		t.Fatal("zero window should give zero throughput")
	}
	var empty Throughput
	if empty.DeliveryRate() != 0 {
		t.Fatal("empty delivery rate not 0")
	}
}
