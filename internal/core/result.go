package core

import (
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// RoundStat summarizes one LEACH round: who led, what moved, what it
// cost. The experiment harness uses it to show how rotation spreads the
// cluster-head burden.
type RoundStat struct {
	Index        int
	Start, End   sim.Time
	Heads        int
	AliveAtStart int
	Delivered    uint64
	ConsumedJ    float64
	Collisions   uint64

	deliveredBase  uint64
	consumedBaseJ  float64
	collisionsBase uint64
	closed         bool
}

// NodeReport is the per-node slice of a Result.
type NodeReport struct {
	Index        int
	RemainingJ   float64
	ConsumedJ    float64
	Dead         bool
	DiedAt       sim.Time
	QueueLen     int
	ServiceShare uint64 // packets from this node that reached a sink
}

// Result is everything a simulation run measured.
type Result struct {
	// Elapsed is the simulated time covered by the run.
	Elapsed sim.Time
	// Rounds is the number of LEACH rounds started.
	Rounds int

	// Energy.
	AvgRemainingJ  float64
	TotalConsumedJ float64
	EnergyByCause  map[energy.Cause]float64
	EnergySeries   *metrics.TimeSeries // avg remaining J vs time (Fig. 8)
	CommEnergyJ    float64             // communication-attributable energy
	EnergyPerPktJ  float64             // CommEnergyJ / Delivered (Fig. 11)

	// Lifetime.
	AliveAtEnd      int
	Deaths          []sim.Time
	AliveSeries     *metrics.TimeSeries // alive count vs time (Fig. 9)
	FirstDeath      sim.Time
	FirstDeathValid bool
	NetworkLifetime sim.Time // time to DeadFraction exhausted (Fig. 10)
	NetworkDead     bool

	// Traffic (§IV.A network performance).
	Generated     uint64
	Delivered     uint64
	DroppedBuffer uint64
	DroppedRetry  uint64
	DeliveryRate  float64
	AggregateKbps float64
	MeanDelayMs   float64
	P95DelayMs    float64
	MaxDelayMs    float64

	// Fairness (Fig. 12).
	QueueStdDev float64

	// MAC behaviour.
	MAC             mac.Counters
	CollisionEvents uint64
	// ForwardedBits is the aggregate payload the heads forwarded to the
	// base station (0 unless the forwarding extension is enabled).
	ForwardedBits uint64
	ModeCounts    []uint64 // delivered packets per ABICM class

	// Per-node detail.
	Nodes []NodeReport

	// RoundReports summarizes each LEACH round.
	RoundReports []RoundStat
}

func (net *Network) buildResult(end sim.Time) Result {
	net.closeRoundStats(end)
	r := Result{
		Elapsed:         end,
		Rounds:          net.rounds,
		EnergyByCause:   make(map[energy.Cause]float64),
		EnergySeries:    net.energySeries,
		AliveSeries:     net.aliveSeries,
		Generated:       net.thr.Generated(),
		Delivered:       net.thr.Delivered(),
		DroppedBuffer:   net.thr.DroppedBuffer(),
		DroppedRetry:    net.thr.DroppedRetry(),
		DeliveryRate:    net.thr.DeliveryRate(),
		AggregateKbps:   net.thr.AggregateKbps(end),
		MeanDelayMs:     net.delays.MeanMs(),
		P95DelayMs:      net.delays.P95Ms(),
		MaxDelayMs:      net.delays.MaxMs(),
		QueueStdDev:     net.fairness.MeanStdDev(),
		CollisionEvents: net.collisionEvents,
		ForwardedBits:   net.forwardedBits,
		ModeCounts:      append([]uint64(nil), net.modeCounts...),
		AliveAtEnd:      net.life.Alive(),
		RoundReports:    append([]RoundStat(nil), net.roundStats...),
		Deaths:          append([]sim.Time(nil), net.life.Deaths()...),
	}
	if t, ok := net.life.FirstDeath(); ok {
		r.FirstDeath, r.FirstDeathValid = t, true
	}
	if t, ok := net.life.NetworkDeadAt(net.cfg.DeadFraction); ok {
		r.NetworkLifetime, r.NetworkDead = t, true
	}

	var sumRemaining float64
	causes := energy.Causes()
	for _, n := range net.nodes {
		sumRemaining += n.battery.Remaining()
		r.TotalConsumedJ += n.battery.Consumed()
		for _, c := range causes {
			if j := n.battery.ConsumedBy(c); j > 0 {
				r.EnergyByCause[c] += j
			}
		}
		r.MAC.Add(n.counters)
		rep := NodeReport{
			Index:        n.idx,
			RemainingJ:   n.battery.Remaining(),
			ConsumedJ:    n.battery.Consumed(),
			Dead:         !n.alive,
			QueueLen:     n.buf.Len(),
			ServiceShare: n.serviceShare,
		}
		if !n.alive {
			// The node's own record, not the battery's: a world-event kill
			// leaves charge behind, and a revived-then-dead node's latest
			// death is the one that matters.
			rep.DiedAt = n.diedAt
		}
		r.Nodes = append(r.Nodes, rep)
	}
	r.AvgRemainingJ = sumRemaining / float64(len(net.nodes))

	// Communication-attributable energy: what Fig. 11 divides by the
	// delivered-packet count. Baseline compute, sleep floors, and the
	// head's idle listening are excluded — they accrue with time, not
	// with packets (DESIGN.md §4).
	for _, c := range []energy.Cause{
		energy.DataTx, energy.DataRx, energy.DataStartup,
		energy.ToneTx, energy.ToneRx, energy.Codec,
	} {
		r.CommEnergyJ += r.EnergyByCause[c]
	}
	if r.Delivered > 0 {
		r.EnergyPerPktJ = r.CommEnergyJ / float64(r.Delivered)
	}
	return r
}
