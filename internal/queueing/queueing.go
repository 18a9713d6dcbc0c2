// Package queueing implements the sensor-side packet path: the packet
// type, the finite FIFO buffer, the Poisson traffic source, and the
// adaptive transmission-threshold adjustment that distinguishes CAEM
// Scheme 1 (§III.C, Fig. 6 of the paper).
package queueing

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Packet is one sensed-data packet awaiting delivery to the cluster head.
type Packet struct {
	// Source is the generating node's index.
	Source int
	// CreatedAt is the generation time; delivery minus creation is the
	// packet delay metric.
	CreatedAt sim.Time
	// SizeBits is the information payload size.
	SizeBits int
	// Retries counts transmission attempts that failed (collision or
	// channel error); the MAC drops the packet after the cap.
	Retries int
}

// Buffer is the node's finite FIFO packet queue (50 packets in Table II).
// A capacity of 0 means unbounded, which §IV.C uses for the fairness
// experiment ("buffer size substantially large enough").
//
// The storage is a power-of-two ring: head chases tail around a fixed
// array that only grows (doubling) while the occupancy demands it, so
// the steady-state enqueue/dequeue cycle — the single hottest allocation
// site in the simulation before this layout — touches the allocator
// exactly zero times once the ring has reached the working-set size.
type Buffer struct {
	capacity int
	ring     []Packet // power-of-two length; empty until first enqueue
	head     int      // index of the head packet
	count    int      // occupied slots
}

// NewBuffer returns a buffer holding at most capacity packets
// (0 = unbounded).
func NewBuffer(capacity int) *Buffer {
	if capacity < 0 {
		panic(fmt.Sprintf("queueing: negative buffer capacity %d", capacity))
	}
	return &Buffer{capacity: capacity}
}

// Reset rewinds the buffer to a fresh NewBuffer(capacity) state while
// keeping the ring storage, so a reused node re-enters service with a
// warmed queue. The reuse path for pooled simulation contexts.
func (b *Buffer) Reset(capacity int) {
	if capacity < 0 {
		panic(fmt.Sprintf("queueing: negative buffer capacity %d", capacity))
	}
	b.capacity = capacity
	b.head = 0
	b.count = 0
}

// Len returns the current queue length.
func (b *Buffer) Len() int { return b.count }

// grow doubles the ring (minimum 8 slots), unrolling the wrapped
// contents into the front of the new array.
func (b *Buffer) grow() {
	n := 2 * len(b.ring)
	if n < 8 {
		n = 8
	}
	fresh := make([]Packet, n)
	copied := copy(fresh, b.ring[b.head:])
	copy(fresh[copied:], b.ring[:b.head])
	b.ring = fresh
	b.head = 0
}

// Enqueue appends p; on overflow the packet is dropped and Enqueue
// returns false (tail drop, the behaviour of a full sensor buffer).
func (b *Buffer) Enqueue(p Packet) bool {
	if b.capacity > 0 && b.count >= b.capacity {
		return false
	}
	if b.count == len(b.ring) {
		b.grow()
	}
	b.ring[(b.head+b.count)&(len(b.ring)-1)] = p
	b.count++
	return true
}

// Dequeue removes and returns the head packet; ok=false when empty.
func (b *Buffer) Dequeue() (Packet, bool) {
	if b.count == 0 {
		return Packet{}, false
	}
	p := b.ring[b.head]
	b.head = (b.head + 1) & (len(b.ring) - 1)
	b.count--
	return p, true
}

// Head returns a pointer to the head packet so the MAC can bump its retry
// counter in place; nil when empty.
func (b *Buffer) Head() *Packet {
	if b.count == 0 {
		return nil
	}
	return &b.ring[b.head]
}

// DropHead discards the head packet (used when the retry cap is
// exceeded). Returns false when empty.
func (b *Buffer) DropHead() bool {
	if b.count == 0 {
		return false
	}
	b.head = (b.head + 1) & (len(b.ring) - 1)
	b.count--
	return true
}

// PoissonSource generates the paper's traffic: "each sensor node is a
// Poisson source". Inter-arrival times are exponential with mean
// 1/RatePerSecond.
type PoissonSource struct {
	RatePerSecond float64
	SizeBits      int
	SourceIndex   int

	stream *rng.Stream
}

// NewPoissonSource builds a source for one node, drawing its gaps from
// stream. No state is shared with any other source.
func NewPoissonSource(rate float64, sizeBits, sourceIndex int, stream *rng.Stream) *PoissonSource {
	if rate < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", rate))
	}
	if sizeBits <= 0 {
		panic(fmt.Sprintf("queueing: non-positive packet size %d", sizeBits))
	}
	return &PoissonSource{RatePerSecond: rate, SizeBits: sizeBits, SourceIndex: sourceIndex, stream: stream}
}

// Reset rewinds the source for a fresh run at a possibly different rate
// and packet size. The RNG stream is kept — the owning context reseeds
// it itself.
func (s *PoissonSource) Reset(rate float64, sizeBits int) {
	if rate < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", rate))
	}
	if sizeBits <= 0 {
		panic(fmt.Sprintf("queueing: non-positive packet size %d", sizeBits))
	}
	s.RatePerSecond = rate
	s.SizeBits = sizeBits
}

// NextInterarrival draws the next exponential gap. A zero-rate source
// never fires (returns a negative sentinel the caller must check with
// Active).
func (s *PoissonSource) NextInterarrival() sim.Time {
	if s.RatePerSecond <= 0 {
		return -1
	}
	gap := s.stream.ExpFloat64() / s.RatePerSecond
	t := sim.FromSeconds(gap)
	if t < 1 {
		t = 1 // quantize below 1 µs up to the clock resolution
	}
	return t
}

// Active reports whether the source generates traffic at all.
func (s *PoissonSource) Active() bool { return s.RatePerSecond > 0 }

// Generate mints the packet created at now.
func (s *PoissonSource) Generate(now sim.Time) Packet {
	return Packet{Source: s.SourceIndex, CreatedAt: now, SizeBits: s.SizeBits}
}

// ThresholdPolicy selects how a node's transmission threshold (the minimum
// ABICM class whose admission SNR the channel must reach before the node
// transmits) evolves. It is the axis along which the paper's three
// protocols differ.
type ThresholdPolicy int

const (
	// PolicyNone ignores the channel: transmit whenever the MAC allows
	// (pure LEACH baseline). Class() reports 0 so any feasible mode
	// qualifies, and transmission proceeds even below the lowest class.
	PolicyNone ThresholdPolicy = iota
	// PolicyFixedHighest pins the threshold at the top class (Scheme 2).
	PolicyFixedHighest
	// PolicyAdaptive adjusts the threshold from queue dynamics
	// (Scheme 1, §III.C).
	PolicyAdaptive
)

func (p ThresholdPolicy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyFixedHighest:
		return "fixed-highest"
	case PolicyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("ThresholdPolicy(%d)", int(p))
	}
}

// AdjusterConfig parameterizes the Scheme 1 adaptive threshold mechanism.
type AdjusterConfig struct {
	// Classes is the number of ABICM classes (4 in the paper).
	Classes int
	// SampleEvery is m: the queue length is sampled every m packet
	// arrivals (5 in the paper) to bound computation overhead.
	SampleEvery int
	// QueueThreshold is Q_th: adjustment activates only once the queue
	// length reaches this value (15 in the paper); below it the
	// threshold rests at the highest class to save energy.
	QueueThreshold int
}

// DefaultAdjusterConfig returns the paper's §III.C constants.
func DefaultAdjusterConfig() AdjusterConfig {
	return AdjusterConfig{Classes: 4, SampleEvery: 5, QueueThreshold: 15}
}

// Validate reports a configuration error, or nil.
func (c AdjusterConfig) Validate() error {
	switch {
	case c.Classes < 1:
		return fmt.Errorf("queueing: Classes = %d, need >= 1", c.Classes)
	case c.SampleEvery < 1:
		return fmt.Errorf("queueing: SampleEvery = %d, need >= 1", c.SampleEvery)
	case c.QueueThreshold < 0:
		return fmt.Errorf("queueing: negative QueueThreshold %d", c.QueueThreshold)
	}
	return nil
}

// ThresholdAdjuster implements Fig. 6 of the paper. It tracks the queue
// length sampled every m arrivals; the difference ΔV between consecutive
// samples predicts the traffic trend. While the queue is at or above
// Q_th: ΔV > 0 (queue growing) lowers the threshold one class so the node
// gets more transmission opportunities; ΔV < 0 (queue draining) resets the
// threshold to the highest class to save energy; ΔV = 0 holds. While the
// queue is below Q_th the threshold rests at the highest class.
type ThresholdAdjuster struct {
	cfg AdjusterConfig

	class        int // current threshold class, 0..Classes-1
	arrivalCount int
	lastSample   int
	haveSample   bool
	active       bool
}

// NewThresholdAdjuster starts at the highest class (the paper's initial
// threshold is 2 Mbps).
func NewThresholdAdjuster(cfg AdjusterConfig) *ThresholdAdjuster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &ThresholdAdjuster{cfg: cfg, class: cfg.Classes - 1}
}

// Reset rewinds the adjuster to a fresh NewThresholdAdjuster(cfg) state
// in place. The reuse path for pooled simulation contexts.
func (a *ThresholdAdjuster) Reset(cfg AdjusterConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*a = ThresholdAdjuster{cfg: cfg, class: cfg.Classes - 1}
}

// Class returns the current threshold class index (0 = lowest/most
// permissive, Classes-1 = highest/most selective).
func (a *ThresholdAdjuster) Class() int { return a.class }

// OnArrival must be called at each packet arrival epoch with the queue
// length after the arrival. It implements the Fig. 6 pseudo-code: the
// mechanism "starts up" once the queue length reaches Q_th; while engaged,
// every m-th arrival compares the sampled queue length with the previous
// sample, lowering the threshold one class on a growing queue (ΔV > 0)
// and resetting it to the highest class on a draining one (ΔV < 0). The
// ΔV < 0 reset is also the disengagement point when the queue has fallen
// back below Q_th — the paper adjusts only at arrival epochs, so there is
// no separate service-time snap-back.
func (a *ThresholdAdjuster) OnArrival(queueLen int) {
	if queueLen >= a.cfg.QueueThreshold {
		a.active = true
	}

	a.arrivalCount++
	if a.arrivalCount < a.cfg.SampleEvery {
		return
	}
	a.arrivalCount = 0

	if !a.haveSample {
		a.lastSample = queueLen
		a.haveSample = true
		return
	}
	deltaV := queueLen - a.lastSample
	a.lastSample = queueLen

	if !a.active {
		return
	}
	switch {
	case deltaV > 0:
		a.setClass(a.class - 1)
	case deltaV < 0:
		a.setClass(a.cfg.Classes - 1)
		if queueLen < a.cfg.QueueThreshold {
			a.active = false
		}
	}
}

// OnServiced informs the adjuster that packets left the queue (after a
// successful burst or a head election). Draining the queue completely is
// the one service-side recovery signal: an empty queue means congestion
// is over, so the threshold returns to the highest class and the
// mechanism disengages until Q_th is reached again.
func (a *ThresholdAdjuster) OnServiced(queueLen int) {
	if queueLen == 0 && a.active {
		a.active = false
		a.setClass(a.cfg.Classes - 1)
		a.haveSample = false
		a.arrivalCount = 0
	}
}

func (a *ThresholdAdjuster) setClass(c int) {
	if c < 0 {
		c = 0
	}
	if c > a.cfg.Classes-1 {
		c = a.cfg.Classes - 1
	}
	a.class = c
}
