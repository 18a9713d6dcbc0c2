// Package mac holds the protocol logic of the CAEM medium access control
// layer (§III.B of the paper): the sensor and cluster-head state machines
// (Figures 3 and 4), the binary-exponential backoff, the burst sizing
// rules (minimum 3, maximum 8 packets per transmission), and the
// retransmission policy (cap of 6).
//
// The types here are pure decision logic — no events, no energy — so they
// are unit-testable in isolation. internal/netsim drives them from the
// event engine and charges the energy model.
package mac

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// SensorState enumerates the sensor node states of Fig. 3.
type SensorState int

const (
	// SensorSleep: both radios off; entered when the queue cannot form a
	// minimum burst or the cluster head vanished.
	SensorSleep SensorState = iota
	// SensorSensing: tone radio on, monitoring the tone channel for an
	// idle indication with adequate CSI.
	SensorSensing
	// SensorBackoff: channel found idle and good; waiting the random
	// backoff before re-checking.
	SensorBackoff
	// SensorTransmit: data radio on, burst in flight (tone radio stays
	// on for collision detection).
	SensorTransmit
)

func (s SensorState) String() string {
	switch s {
	case SensorSleep:
		return "sleep"
	case SensorSensing:
		return "sensing"
	case SensorBackoff:
		return "backoff"
	case SensorTransmit:
		return "transmit"
	default:
		return fmt.Sprintf("SensorState(%d)", int(s))
	}
}

// HeadState enumerates the cluster-head states of Fig. 4.
type HeadState int

const (
	// HeadIdle: data channel free; idle tone pulses broadcast
	// periodically.
	HeadIdle HeadState = iota
	// HeadReceive: a burst is arriving; receive tone pulses every 10 ms.
	HeadReceive
	// HeadCollision: overlapping transmissions detected; collision tone
	// sent, then back to idle.
	HeadCollision
	// HeadTransmit: forwarding aggregated data to the base station
	// (defined by the paper, exercised only by the extension
	// experiment).
	HeadTransmit
)

func (s HeadState) String() string {
	switch s {
	case HeadIdle:
		return "idle"
	case HeadReceive:
		return "receive"
	case HeadCollision:
		return "collision"
	case HeadTransmit:
		return "transmit"
	default:
		return fmt.Sprintf("HeadState(%d)", int(s))
	}
}

// Config holds the MAC constants (Table II and §III.B/§IV of the paper).
type Config struct {
	// SlotTime is the backoff quantum (20 µs in the backoff expression).
	SlotTime sim.Time
	// ContentionWindow is CW (10 in Table II).
	ContentionWindow int
	// MaxRetries is the retransmission cap n_max (6 in §III.B).
	MaxRetries int
	// MinBurst is the minimum number of packets per transmission (3,
	// amortizing the radio startup cost, §IV).
	MinBurst int
	// MaxBurst is the maximum number of packets per transmission (8,
	// bounding one node's channel hold time for fairness, §IV).
	MaxBurst int
	// SensingDelay is the time a sensor needs to acquire and verify the
	// tone state before it may contend (8 ms, Table II).
	SensingDelay sim.Time
}

// DefaultConfig returns the paper's MAC constants. The backoff slot is
// interpreted as 0.2 ms rather than a literal 20 µs: the scan loses the
// unit, and 20 µs slots would make the initial contention window (200 µs)
// shorter than the tone-feedback latency (a 0.5 ms receive pulse), so any
// two simultaneous contenders would always collide on their first attempt
// — inconsistent with the performance the paper reports (DESIGN.md §4).
func DefaultConfig() Config {
	return Config{
		SlotTime:         200 * sim.Microsecond,
		ContentionWindow: 10,
		MaxRetries:       6,
		MinBurst:         3,
		MaxBurst:         8,
		SensingDelay:     8 * sim.Millisecond,
	}
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.SlotTime <= 0:
		return fmt.Errorf("mac: SlotTime %v not positive", c.SlotTime)
	case c.ContentionWindow < 1:
		return fmt.Errorf("mac: ContentionWindow %d < 1", c.ContentionWindow)
	case c.MaxRetries < 0:
		return fmt.Errorf("mac: negative MaxRetries %d", c.MaxRetries)
	case c.MinBurst < 1:
		return fmt.Errorf("mac: MinBurst %d < 1", c.MinBurst)
	case c.MaxBurst < c.MinBurst:
		return fmt.Errorf("mac: MaxBurst %d < MinBurst %d", c.MaxBurst, c.MinBurst)
	case c.SensingDelay < 0:
		return fmt.Errorf("mac: negative SensingDelay %v", c.SensingDelay)
	}
	return nil
}

// Backoff draws the random contention delay of §III.B:
//
//	rand() × 2^n × SlotTime × CW
//
// where rand() is uniform in [0, 1) and n is the packet's retransmission
// count, capped at MaxRetries. The exponential term spreads repeat
// colliders over a growing window.
func (c Config) Backoff(retries int, stream *rng.Stream) sim.Time {
	d := sim.Time(stream.Float64() * float64(c.window(retries)))
	if d < 1 {
		d = 1 // never a zero backoff: two contenders must be separable
	}
	return d
}

// window returns the backoff window 2^n × SlotTime × CW for the given
// retry count, clamped to [0, MaxRetries]: the bound of every Backoff
// draw.
func (c Config) window(retries int) sim.Time {
	if retries < 0 {
		retries = 0
	}
	if retries > c.MaxRetries {
		retries = c.MaxRetries
	}
	return sim.Time(int64(1)<<uint(retries)) * c.SlotTime * sim.Time(c.ContentionWindow)
}

// BurstSize decides how many packets a node may send given its queue
// length: 0 if the queue cannot form a minimum burst, otherwise
// min(queueLen, MaxBurst).
func (c Config) BurstSize(queueLen int) int {
	if queueLen < c.MinBurst {
		return 0
	}
	if queueLen > c.MaxBurst {
		return c.MaxBurst
	}
	return queueLen
}

// ShouldDrop reports whether a packet that just failed its transmission
// should be discarded (retry count, after increment, exceeds the cap).
func (c Config) ShouldDrop(retriesAfterIncrement int) bool {
	return retriesAfterIncrement > c.MaxRetries
}

// Counters aggregates per-node MAC events for diagnostics and the
// fairness/performance experiments.
type Counters struct {
	Attempts      uint64 // bursts started
	Collisions    uint64 // bursts aborted by a collision tone
	ChannelFails  uint64 // packets lost to channel error (PER draw)
	RetryDrops    uint64 // packets discarded at the retry cap
	PacketsSent   uint64 // packets delivered to the CH
	BurstsDone    uint64 // bursts fully completed
	DeferralsCSI  uint64 // transmission opportunities declined: CSI below threshold
	DeferralsBusy uint64 // opportunities declined: channel not idle
}

// Add accumulates other into c (for network-wide totals).
func (c *Counters) Add(other Counters) {
	c.Attempts += other.Attempts
	c.Collisions += other.Collisions
	c.ChannelFails += other.ChannelFails
	c.RetryDrops += other.RetryDrops
	c.PacketsSent += other.PacketsSent
	c.BurstsDone += other.BurstsDone
	c.DeferralsCSI += other.DeferralsCSI
	c.DeferralsBusy += other.DeferralsBusy
}
