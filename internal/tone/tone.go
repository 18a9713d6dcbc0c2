// Package tone implements the tone signaling channel of CAEM (§III.A).
//
// The cluster head owns a second, low-power radio on a separate frequency.
// It broadcasts pulse series whose inter-pulse interval encodes the state
// of the shared data channel (Table I of the paper): idle, receive,
// transmit, collision. A sensor with a pending packet turns on its tone
// receiver, decodes the state from the pulse interval, and — because the
// tone channel shares propagation characteristics with the data channel
// and the link is reciprocal — estimates the data-channel CSI from the
// measured tone SNR.
//
// This package holds the pulse-pattern definitions, the interval decoder a
// sensor runs, and the CSI estimator. The event-driven broadcasting itself
// lives in internal/netsim, which charges tone-radio energy through
// internal/energy.
package tone

import (
	"fmt"

	"repro/internal/sim"
)

// State is the data-channel state advertised on the tone channel.
type State int

const (
	// Idle: the data channel is free; sensors may contend.
	Idle State = iota
	// Receive: the cluster head is receiving a burst; pulses every 10 ms
	// also let the sender re-adapt its error protection mid-burst.
	Receive
	// Transmit: the cluster head is sending processed data to the base
	// station. The paper defines the state but does not exercise it ("we
	// do not consider this in this paper at this stage"); it is modelled
	// for completeness and used by an extension experiment.
	Transmit
	// Collision: the cluster head detected packet corruption from
	// overlapping transmissions; senders must abort.
	Collision
	numStates
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Receive:
		return "receive"
	case Transmit:
		return "transmit"
	case Collision:
		return "collision"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Pattern is the pulse series for one state: pulses of Duration sent every
// Interval, Repeat times (0 = repeat until the state changes).
type Pattern struct {
	State    State
	Duration sim.Time // pulse on-air duration
	Interval sim.Time // inter-pulse period identifying the state
	Repeat   int      // 0 = unbounded
}

// Scheme is the full Table I: one pattern per state, with intervals
// distinct enough to decode.
type Scheme struct {
	patterns [numStates]Pattern
}

// DefaultScheme returns the paper's tone parameters (§III.A, Table I):
//
//   - idle: 1 ms pulses every 50 ms, broadcast periodically while free;
//   - receive: 0.5 ms pulses every 10 ms while a burst is arriving;
//   - transmit: 0.5 ms pulses every 15 ms (state defined but unused at
//     this stage of the paper);
//   - collision: one 0.5 ms pulse pair at 5 ms spacing, sent once on
//     detecting corruption.
func DefaultScheme() Scheme {
	var s Scheme
	s.patterns[Idle] = Pattern{State: Idle, Duration: 1 * sim.Millisecond, Interval: 50 * sim.Millisecond, Repeat: 0}
	s.patterns[Receive] = Pattern{State: Receive, Duration: 500 * sim.Microsecond, Interval: 10 * sim.Millisecond, Repeat: 0}
	s.patterns[Transmit] = Pattern{State: Transmit, Duration: 500 * sim.Microsecond, Interval: 15 * sim.Millisecond, Repeat: 0}
	s.patterns[Collision] = Pattern{State: Collision, Duration: 500 * sim.Microsecond, Interval: 5 * sim.Millisecond, Repeat: 2}
	return s
}

// Pattern returns the pulse pattern for a state.
func (s Scheme) Pattern(st State) Pattern { return s.patterns[st] }

// Patterns returns all patterns in state order (Table I rows).
func (s Scheme) Patterns() []Pattern {
	out := make([]Pattern, numStates)
	for i := range s.patterns {
		out[i] = s.patterns[i]
	}
	return out
}

// Validate checks that the scheme is decodable: positive durations,
// intervals strictly longer than pulse durations, and pairwise-distinct
// intervals (the interval is the information carrier).
func (s Scheme) Validate() error {
	seen := map[sim.Time]State{}
	for st := State(0); st < numStates; st++ {
		p := s.patterns[st]
		if p.Duration <= 0 {
			return fmt.Errorf("tone: state %v has non-positive pulse duration %v", st, p.Duration)
		}
		if p.Interval <= p.Duration {
			return fmt.Errorf("tone: state %v interval %v not longer than pulse %v", st, p.Interval, p.Duration)
		}
		if prev, dup := seen[p.Interval]; dup {
			return fmt.Errorf("tone: states %v and %v share interval %v (undecodable)", prev, st, p.Interval)
		}
		seen[p.Interval] = st
		if p.Repeat < 0 {
			return fmt.Errorf("tone: state %v has negative repeat %d", st, p.Repeat)
		}
	}
	return nil
}

// MinDecodeTolerance returns the largest safe decoding tolerance: just
// under half the minimum gap between any two state intervals.
func (s Scheme) MinDecodeTolerance() sim.Time {
	var minGap sim.Time = 1<<62 - 1
	for a := State(0); a < numStates; a++ {
		for b := a + 1; b < numStates; b++ {
			g := s.patterns[a].Interval - s.patterns[b].Interval
			if g < 0 {
				g = -g
			}
			if g < minGap {
				minGap = g
			}
		}
	}
	return minGap/2 - 1
}

// DutyCycle returns the fraction of time the tone transmitter is on while
// continuously advertising the given state — the quantity that makes the
// tone channel "energy efficient" per §III.B (e.g. idle: 1 ms / 50 ms = 2%).
func (s Scheme) DutyCycle(st State) float64 {
	p := s.patterns[st]
	return p.Duration.Seconds() / p.Interval.Seconds()
}

// CSIEstimator turns a measured tone-pulse SNR into a data-channel CSI
// estimate. Because the paper assumes the two channels share attenuation
// and fading parameters and that links are reciprocal (§III.A assumptions
// 1-2), the estimate is the measured SNR plus a calibration offset (zero
// by default) and optional quantization to model a real estimator's
// resolution.
type CSIEstimator struct {
	// OffsetDB calibrates between tone-radio and data-radio link budgets.
	OffsetDB float64
	// QuantizeDB rounds the estimate to this granularity; 0 = exact.
	QuantizeDB float64
}

// Estimate returns the data-channel CSI inferred from a tone measurement.
func (e CSIEstimator) Estimate(toneSNRdB float64) float64 {
	v := toneSNRdB + e.OffsetDB
	if e.QuantizeDB > 0 {
		steps := v / e.QuantizeDB
		if steps >= 0 {
			steps = float64(int64(steps + 0.5))
		} else {
			steps = float64(int64(steps - 0.5))
		}
		v = steps * e.QuantizeDB
	}
	return v
}
