package core

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/sim"
)

// WorldEvent is one scheduled mutation of the simulated world: an external
// condition change (node failure, battery service, traffic shift, channel
// weather) that the protocol under test must adapt to. World events are
// the execution layer of the scenario engine (internal/scenario): the
// declarative timeline compiles down to a []WorldEvent on the Config, and
// Run schedules each one into the discrete-event engine before the first
// protocol event fires, so event ordering — and therefore the whole run —
// stays deterministic for a given Config.
//
// Apply closures must be pure functions of the World they receive (no
// captured mutable state), so a compiled Config can be shared across
// concurrent runs.
type WorldEvent struct {
	// At is the absolute simulation time the mutation takes effect.
	At sim.Time
	// Apply performs the mutation through the World surface.
	Apply func(w *World)
}

// World is the mutation surface handed to world events. It exposes the
// externally-forceable state of the network — node lifecycle, batteries,
// traffic sources, propagation parameters — while keeping protocol state
// (FSMs, queues, clustering) under the simulation's own control.
type World struct {
	net *Network
}

// Kill forces node i to fail immediately (crash, tampering, environmental
// damage — any failure other than battery exhaustion; the battery keeps
// its charge). The usual death bookkeeping applies: if the node headed a
// cluster, the cluster collapses until the next election. Killing a dead
// node is a no-op.
func (w *World) Kill(i int) {
	net := w.net
	n := net.nodes[i]
	if !n.alive {
		return
	}
	now := net.eng.Now()
	// Settle dwell energy under the pre-failure state first, so the
	// ledger is exact up to the failure instant.
	n.accrue(net, now)
	if n.alive {
		net.nodeDied(n, now)
	}
}

// Revive returns a dead node to service with energyJ added to whatever
// charge its battery retained (a battery swap / field repair). The node
// wakes in the sleep state outside any cluster and rejoins at the next
// LEACH election; its traffic source restarts immediately. Packets that
// were buffered when the node failed are lost (the repair replaces the
// hardware; a delivered months-stale reading would also poison the delay
// metric with repair downtime rather than MAC behaviour). Reviving an
// alive node is a no-op.
func (w *World) Revive(i int, energyJ float64) {
	net := w.net
	n := net.nodes[i]
	if n.alive {
		return
	}
	n.battery.Recharge(energyJ)
	if n.battery.Dead() {
		return // no usable charge; the repair failed
	}
	now := net.eng.Now()
	n.alive = true
	n.lastAccrual = now
	n.state = mac.SensorSleep
	n.isHead = false
	n.clusterIdx = -1
	for {
		if !n.buf.DropHead() {
			break
		}
	}
	n.adjust.OnServiced(0)
	net.aliveMask[i] = true
	net.life.NodeRevived(now)
	net.emit(TraceRevive, i, 0, "")
	net.scheduleArrival(n)
}

// AddEnergy tops up an alive node's battery by joules (energy harvesting,
// battery service). Dead nodes are unaffected — use Revive to also return
// the node to service.
func (w *World) AddEnergy(i int, joules float64) {
	n := w.net.nodes[i]
	if !n.alive {
		return
	}
	n.battery.Recharge(joules)
}

// SetArrivalRate changes node i's Poisson traffic rate to perSecond
// (0 silences the source). The next inter-arrival gap is redrawn at the
// new rate; the change applies even while the node is dead, taking effect
// if it is later revived.
func (w *World) SetArrivalRate(i int, perSecond float64) {
	if perSecond < 0 {
		panic(fmt.Sprintf("core: negative arrival rate %v for node %d", perSecond, i))
	}
	net := w.net
	n := net.nodes[i]
	// The elided arrivals up to now drew their gaps at the old rate.
	net.catchUp(n)
	n.source.RatePerSecond = perSecond
	net.eng.Cancel(n.arrivalEv)
	if n.alive {
		net.scheduleArrival(n)
	}
}

// ScaleArrivalRate multiplies node i's current traffic rate by factor.
func (w *World) ScaleArrivalRate(i int, factor float64) {
	if factor < 0 {
		panic(fmt.Sprintf("core: negative rate factor %v for node %d", factor, i))
	}
	w.SetArrivalRate(i, w.net.nodes[i].source.RatePerSecond*factor)
}

// MoveNode re-places node i at (x, y) — vehicle-mounted or relocated
// hardware, a mobility trace step. Every cached link realization
// touching the node is discarded and re-materializes lazily at the new
// distance from the pair's original deterministic stream (the same
// invalidation path weather events use, restricted to the n-1 pairs
// that contain the node). Dead nodes move too: the new position takes
// effect if the node is later revived. It panics on a position outside
// the field — the scenario compiler validates targets up front.
func (w *World) MoveNode(i int, x, y float64) {
	net := w.net
	field := geom.Field{Width: net.cfg.FieldWidth, Height: net.cfg.FieldHeight}
	p := geom.Point{X: x, Y: y}
	if !field.Contains(p) {
		panic(fmt.Sprintf("core: world event moved node %d to (%v, %v), outside the %vx%v field",
			i, x, y, net.cfg.FieldWidth, net.cfg.FieldHeight))
	}
	n := net.nodes[i]
	d := n.pos.Distance(p)
	net.positions[i] = p
	n.pos = p
	net.resetLinksOf(i)
	net.emit(TraceMove, i, int(d), "")
}

// MoveNodeWithin re-places node i uniformly at random inside the given
// rectangle, drawing from the dedicated mobility stream so the draw —
// like every other stochastic process — is a pure function of the
// master seed and the event order.
func (w *World) MoveNodeWithin(i int, x, y, width, height float64) {
	st := &w.net.mobilityStream
	px := x + st.Float64()*width
	py := y + st.Float64()*height
	w.MoveNode(i, px, py)
}

// StartInterference begins a cross-network interference burst: every
// node currently positioned inside the rectangle suffers penaltyDB of
// SNR loss on all its links until EndInterference is called with the
// same id. Membership is fixed at burst start — a node that moves out
// keeps its penalty (the interferer tracks the neighbourhood, not the
// node), and the end event releases exactly what the start imposed. The
// id must be unique among in-flight bursts; the scenario compiler
// derives it from the event's position in the timeline.
func (w *World) StartInterference(id uint64, x, y, width, height float64, penaltyDB float64) {
	net := w.net
	if net.interferenceByID == nil {
		net.interferenceByID = make(map[uint64][]int)
	}
	if _, dup := net.interferenceByID[id]; dup {
		panic(fmt.Sprintf("core: interference burst id %d already active", id))
	}
	var affected []int
	for i, p := range net.positions {
		if p.X >= x && p.X < x+width && p.Y >= y && p.Y < y+height {
			affected = append(affected, i)
			net.interference.Add(i, penaltyDB)
		}
	}
	net.interferenceByID[id] = affected
	net.emit(TraceInterference, -1, len(affected), "start")
}

// EndInterference releases the penalties burst id imposed. Ending an
// unknown id is a no-op (the burst may have caught no nodes worth
// recording, but an empty burst is still registered, so in practice
// this only tolerates ends racing a horizon cut).
func (w *World) EndInterference(id uint64, penaltyDB float64) {
	net := w.net
	affected, ok := net.interferenceByID[id]
	if !ok {
		return
	}
	for _, i := range affected {
		net.interference.Remove(i, penaltyDB)
	}
	delete(net.interferenceByID, id)
	net.emit(TraceInterference, -1, len(affected), "end")
}

// SetSinkDown fails (true) or recovers (false) the base station. While
// the sink is down, cluster heads keep aggregating but the forwarding
// extension transmits nothing; the backlog flushes after recovery. The
// outage is metric-visible only with Config.BaseStationForwarding
// enabled, but the trace event is emitted regardless. Setting the
// current state again is a no-op (no trace event).
func (w *World) SetSinkDown(down bool) {
	net := w.net
	if net.sinkDown == down {
		return
	}
	net.sinkDown = down
	detail := "up"
	if down {
		detail = "down"
	}
	net.emit(TraceSink, -1, 0, detail)
}

// UpdateChannel mutates the deployment-wide propagation parameters
// (Doppler, shadowing, path loss, link budget — the "weather"). Every
// cached link realization is discarded; links re-materialize lazily under
// the new parameters from their original per-pair streams, so the run
// stays a pure function of the master seed. It panics on parameters that
// fail validation — the scenario compiler validates values up front, so
// reaching an invalid combination here is a programming error.
func (w *World) UpdateChannel(mutate func(p *channel.Params)) {
	net := w.net
	params := net.cfg.Channel
	mutate(&params)
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("core: world event produced invalid channel parameters: %v", err))
	}
	net.cfg.Channel = params
	net.resetLinks()
}
