package queueing

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Packets are told apart by CreatedAt: packet i is created at i µs.
func pkt(i int) Packet { return Packet{CreatedAt: sim.Time(i)} }

func TestBufferFIFO(t *testing.T) {
	b := NewBuffer(10)
	for i := 0; i < 5; i++ {
		if !b.Enqueue(pkt(i)) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := 0; i < 5; i++ {
		p, ok := b.Dequeue()
		if !ok || p.CreatedAt != sim.Time(i) {
			t.Fatalf("dequeue %d: got (%v, %v)", i, p.CreatedAt, ok)
		}
	}
	if _, ok := b.Dequeue(); ok {
		t.Fatal("dequeue from empty buffer succeeded")
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 3; i++ {
		if !b.Enqueue(pkt(i)) {
			t.Fatal("enqueue within capacity failed")
		}
	}
	if b.Enqueue(pkt(99)) {
		t.Fatal("enqueue past capacity succeeded")
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d after overflow, want 3", b.Len())
	}
	var tail Packet
	for b.Len() > 0 {
		tail, _ = b.Dequeue()
	}
	if tail.CreatedAt != 2 {
		t.Fatalf("tail = %v after overflow, want the packet created at 2", tail.CreatedAt)
	}
}

func TestBufferUnbounded(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 10000; i++ {
		if !b.Enqueue(pkt(i)) {
			t.Fatalf("unbounded buffer rejected packet %d", i)
		}
	}
	if b.Len() != 10000 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestBufferPeekAndHead(t *testing.T) {
	b := NewBuffer(10)
	if b.Head() != nil {
		t.Fatal("head on empty not nil")
	}
	b.Enqueue(pkt(1))
	b.Enqueue(pkt(2))
	if p := b.Head(); p == nil || p.CreatedAt != 1 {
		t.Fatalf("head = %v", p)
	}
	// Head gives in-place mutation for retry bookkeeping.
	b.Head().Retries = 5
	if p := b.Head(); p.Retries != 5 {
		t.Fatal("head mutation not visible")
	}
	if b.Len() != 2 {
		t.Fatal("peek/head changed the length")
	}
}

func TestDropHead(t *testing.T) {
	b := NewBuffer(10)
	if b.DropHead() {
		t.Fatal("DropHead on empty succeeded")
	}
	b.Enqueue(pkt(1))
	b.Enqueue(pkt(2))
	if !b.DropHead() {
		t.Fatal("DropHead failed")
	}
	if p := b.Head(); p.CreatedAt != 2 {
		t.Fatal("DropHead removed the wrong packet")
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d after DropHead, want 1", b.Len())
	}
}

// Property: for any interleaving of enqueues and dequeues, the buffer
// conserves packets: accepted = dequeued + len, and an enqueue is
// refused exactly when a bounded buffer is full.
func TestBufferConservation(t *testing.T) {
	check := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw % 20)
		b := NewBuffer(capacity)
		accepted, dequeued := 0, 0
		for i, enq := range ops {
			if enq {
				full := capacity > 0 && b.Len() == capacity
				if b.Enqueue(pkt(i)) == full {
					return false
				}
				if !full {
					accepted++
				}
			} else if _, ok := b.Dequeue(); ok {
				dequeued++
			}
		}
		return accepted == dequeued+b.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO order is preserved — packets dequeue in enqueue order.
func TestBufferOrderProperty(t *testing.T) {
	check := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		b := NewBuffer(0)
		for i := 0; i < n; i++ {
			b.Enqueue(pkt(i))
		}
		for i := 0; i < n; i++ {
			p, ok := b.Dequeue()
			if !ok || p.CreatedAt != sim.Time(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonSourceInterarrivals(t *testing.T) {
	s := NewPoissonSource(5, 2000, 3, rng.NewSource(1).Stream("arr", 0))
	if !s.Active() {
		t.Fatal("source with positive rate not active")
	}
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		gap := s.NextInterarrival()
		if gap <= 0 {
			t.Fatalf("non-positive interarrival %v", gap)
		}
		sum += gap.Seconds()
	}
	mean := sum / n
	if mean < 0.19 || mean > 0.21 {
		t.Fatalf("mean interarrival = %v s, want ~0.2 (rate 5)", mean)
	}
}

func TestPoissonSourceGenerate(t *testing.T) {
	s := NewPoissonSource(5, 2000, 3, rng.NewSource(1).Stream("arr", 0))
	p1 := s.Generate(10 * sim.Second)
	if p1 != (Packet{Source: 3, CreatedAt: 10 * sim.Second, SizeBits: 2000}) {
		t.Fatalf("packet fields wrong: %+v", p1)
	}
}

func TestZeroRateSourceInactive(t *testing.T) {
	s := NewPoissonSource(0, 2000, 0, rng.NewSource(1).Stream("arr", 0))
	if s.Active() {
		t.Fatal("zero-rate source active")
	}
	if gap := s.NextInterarrival(); gap >= 0 {
		t.Fatalf("zero-rate interarrival = %v, want negative sentinel", gap)
	}
}

func TestAdjusterConfigValidate(t *testing.T) {
	if err := DefaultAdjusterConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AdjusterConfig{
		{Classes: 0, SampleEvery: 5, QueueThreshold: 15},
		{Classes: 4, SampleEvery: 0, QueueThreshold: 15},
		{Classes: 4, SampleEvery: 5, QueueThreshold: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAdjusterStartsAtHighest(t *testing.T) {
	a := NewThresholdAdjuster(DefaultAdjusterConfig())
	if a.Class() != 3 {
		t.Fatalf("initial class = %d, want 3 (2 Mbps)", a.Class())
	}
	if a.active {
		t.Fatal("fresh adjuster already active")
	}
}

// Below Q_th the mechanism must not engage regardless of arrivals.
func TestAdjusterInactiveBelowQth(t *testing.T) {
	a := NewThresholdAdjuster(DefaultAdjusterConfig())
	for q := 1; q <= 14; q++ {
		a.OnArrival(q)
	}
	if a.active {
		t.Fatal("adjuster engaged below Q_th")
	}
	if a.Class() != 3 {
		t.Fatalf("class moved to %d while inactive", a.Class())
	}
}

// A steadily growing queue above Q_th lowers the class one step per m-th
// arrival, down to the floor.
func TestAdjusterLowersOnGrowth(t *testing.T) {
	cfg := DefaultAdjusterConfig()
	a := NewThresholdAdjuster(cfg)
	q := cfg.QueueThreshold
	a.OnArrival(q) // engage
	// Feed strictly growing queue samples.
	for i := 0; i < 5*cfg.SampleEvery; i++ {
		q++
		a.OnArrival(q)
	}
	if a.Class() != 0 {
		t.Fatalf("class = %d after sustained growth, want 0", a.Class())
	}
}

// A draining queue resets the threshold to the highest class.
func TestAdjusterResetsOnDrain(t *testing.T) {
	cfg := DefaultAdjusterConfig()
	a := NewThresholdAdjuster(cfg)
	q := 30
	for i := 0; i < 3*cfg.SampleEvery; i++ {
		q++
		a.OnArrival(q)
	}
	if a.Class() == cfg.Classes-1 {
		t.Fatal("setup failed: class did not lower")
	}
	// Now the queue drains (but stays above Q_th so we see the pure
	// ΔV < 0 path).
	for i := 0; i < 2*cfg.SampleEvery; i++ {
		q--
		a.OnArrival(q)
	}
	if a.Class() != cfg.Classes-1 {
		t.Fatalf("class = %d after drain, want %d", a.Class(), cfg.Classes-1)
	}
}

// Draining below Q_th disengages the mechanism.
func TestAdjusterDisengagesBelowQth(t *testing.T) {
	cfg := DefaultAdjusterConfig()
	a := NewThresholdAdjuster(cfg)
	q := 20
	for i := 0; i < 2*cfg.SampleEvery; i++ {
		q++
		a.OnArrival(q)
	}
	if !a.active {
		t.Fatal("setup failed: not active")
	}
	// Drain to below Q_th with a ΔV < 0 sample landing there.
	for q > 5 {
		q--
		a.OnArrival(q)
	}
	if a.active {
		t.Fatal("adjuster still active after queue fell below Q_th on a draining trend")
	}
	if a.Class() != cfg.Classes-1 {
		t.Fatalf("class = %d, want max", a.Class())
	}
}

func TestAdjusterOnServicedFullDrain(t *testing.T) {
	cfg := DefaultAdjusterConfig()
	a := NewThresholdAdjuster(cfg)
	q := 20
	for i := 0; i < 3*cfg.SampleEvery; i++ {
		q++
		a.OnArrival(q)
	}
	a.OnServiced(3) // partial drain: stays engaged
	if !a.active {
		t.Fatal("partial drain disengaged the adjuster")
	}
	a.OnServiced(0) // full drain: recovered
	if a.active || a.Class() != cfg.Classes-1 {
		t.Fatalf("full drain: active=%v class=%d", a.active, a.Class())
	}
}

// ΔV == 0 holds the class.
func TestAdjusterHoldsOnFlat(t *testing.T) {
	cfg := DefaultAdjusterConfig()
	a := NewThresholdAdjuster(cfg)
	// Engage and lower once.
	for i := 0; i <= cfg.SampleEvery*2; i++ {
		a.OnArrival(16 + i)
	}
	// One full sample cycle of flat queue so the previous sample is also
	// flat; only then is ΔV truly zero.
	for i := 0; i < cfg.SampleEvery; i++ {
		a.OnArrival(40)
	}
	c := a.Class()
	for i := 0; i < cfg.SampleEvery*4; i++ {
		a.OnArrival(40) // flat samples
	}
	if a.Class() != c {
		t.Fatalf("class moved from %d to %d on flat queue", c, a.Class())
	}
}

// Property: the class always stays within [0, Classes-1] for arbitrary
// queue-length sequences.
func TestAdjusterClassBounded(t *testing.T) {
	cfg := DefaultAdjusterConfig()
	check := func(qs []uint8) bool {
		a := NewThresholdAdjuster(cfg)
		for i, q := range qs {
			a.OnArrival(int(q))
			if i%7 == 0 {
				a.OnServiced(int(q) / 2)
			}
			if a.Class() < 0 || a.Class() > cfg.Classes-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyNone.String() != "none" || PolicyFixedHighest.String() != "fixed-highest" || PolicyAdaptive.String() != "adaptive" {
		t.Fatal("policy names wrong")
	}
}
