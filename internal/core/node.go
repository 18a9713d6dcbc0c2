package core

import (
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/sim"
)

// node is one sensor's run-time state. The protocol logic lives in
// internal/mac and internal/queueing; node wires it to the event engine
// and the energy ledger.
type node struct {
	idx int
	pos geom.Point

	battery *energy.Battery
	buf     *queueing.Buffer
	source  *queueing.PoissonSource
	adjust  *queueing.ThresholdAdjuster

	counters mac.Counters

	state        mac.SensorState
	isHead       bool
	clusterIdx   int // index into net.clusters, -1 when unassigned/dead
	sensingSince sim.Time
	lastAccrual  sim.Time
	diedAt       sim.Time // latest death time (exhaustion or world kill)

	arrivalEv sim.EventID
	backoffEv sim.EventID

	// saturated is set while the node's buffer is full and its arrivals
	// are elided; nextArrival is then the first arrival not yet counted
	// (see catchUp).
	saturated   bool
	nextArrival sim.Time

	// Reusable event handlers (created once in New) and the context the
	// single pending backoff event reads at fire time, so the arrival and
	// contention hot paths never allocate closures.
	arrivalFn  func()
	backoffFn  func()
	backoffCl  *cluster
	backoffGen uint64

	backoffStream *rng.Stream
	perStream     *rng.Stream
	csiStream     *rng.Stream
	arrivalStream *rng.Stream // owned by source; kept for in-place reseeding

	alive bool

	// queueSum/queueSamples accumulate the node's own time-averaged
	// queue length for the per-node fairness report.
	serviceShare uint64 // packets delivered from this node
}

// accrue charges the battery for the continuous power drawn since the last
// accrual, given the node's current radio states, and returns false if the
// battery died during the interval. Discrete costs (airtime, startup,
// pulses, codec) are charged separately at their events; accrue covers
// only dwell power, so the two never double count:
//
//   - sleep:            data sleep + tone sleep
//   - sensing/backoff:  data sleep + tone rx (monitoring)
//   - transmit:         tone rx only (data tx airtime is discrete)
//   - cluster head:     handled in clusterAccrue (data idle-listen / rx)
//
// The MCU+sensing baseline is always on while alive.
func (n *node) accrue(net *Network, now sim.Time) bool {
	dur := now - n.lastAccrual
	if dur <= 0 {
		return n.alive
	}
	n.lastAccrual = now
	if !n.alive {
		return false
	}
	d := &net.cfg.Device
	if !n.battery.DrawPower(energy.Baseline, d.BaselinePower, dur) {
		net.nodeDied(n, now)
		return false
	}
	if n.isHead {
		return net.headDwell(n, dur, now)
	}
	var dataP, toneP float64
	var dataCause, toneCause energy.Cause
	switch n.state {
	case mac.SensorSleep:
		dataP, dataCause = d.DataSleepPower, energy.DataSleep
		toneP, toneCause = d.ToneSleepPower, energy.ToneRx
	case mac.SensorSensing, mac.SensorBackoff:
		dataP, dataCause = d.DataSleepPower, energy.DataSleep
		toneP, toneCause = d.ToneRxPower, energy.ToneRx
	case mac.SensorTransmit:
		dataP, dataCause = 0, energy.DataSleep
		toneP, toneCause = d.ToneRxPower, energy.ToneRx
	}
	if dataP > 0 && !n.battery.DrawPower(dataCause, dataP, dur) {
		net.nodeDied(n, now)
		return false
	}
	if toneP > 0 && !n.battery.DrawPower(toneCause, toneP, dur) {
		net.nodeDied(n, now)
		return false
	}
	return true
}

// currentThresholdClass returns the ABICM class the node's policy
// currently demands, and whether a CSI check applies at all.
func (n *node) currentThresholdClass(net *Network) (class int, checkCSI bool) {
	switch net.cfg.Policy {
	case queueing.PolicyNone:
		return 0, false
	case queueing.PolicyFixedHighest:
		return net.cfg.Modes.Len() - 1, true
	case queueing.PolicyAdaptive:
		return n.adjust.Class(), true
	default:
		panic("netsim: unknown policy")
	}
}
