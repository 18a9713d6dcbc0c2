package core

import (
	"fmt"

	"repro/internal/sim"
)

// TraceKind classifies a trace event.
type TraceKind int

const (
	// TraceRound marks a LEACH round start; Value is the head count.
	TraceRound TraceKind = iota
	// TraceSensorState marks a sensor FSM transition; Detail is the new
	// state.
	TraceSensorState
	// TraceHeadState marks a cluster-head FSM transition; Detail is the
	// new state.
	TraceHeadState
	// TraceBurstStart marks a data burst beginning; Value is the burst
	// size.
	TraceBurstStart
	// TraceDelivered marks a packet delivery; Value is the ABICM class.
	TraceDelivered
	// TraceChannelFail marks a packet corrupted by channel error.
	TraceChannelFail
	// TraceCollision marks a resolved collision; Value is the number of
	// colliding senders.
	TraceCollision
	// TraceDrop marks a packet loss; Detail is "buffer" or "retry".
	TraceDrop
	// TraceDeferral marks a declined transmission opportunity; Detail is
	// "csi" or "busy".
	TraceDeferral
	// TraceDeath marks a battery exhaustion.
	TraceDeath
	// TraceRevive marks a dead node returning to service (world event).
	TraceRevive
	// TraceMove marks a node re-placement (world event); Value is the
	// distance moved in whole metres.
	TraceMove
	// TraceInterference marks an interference burst boundary; Value is
	// the affected node count, Detail "start" or "end".
	TraceInterference
	// TraceSink marks a base-station outage boundary; Detail is "down"
	// or "up".
	TraceSink
	numTraceKinds
)

var traceKindNames = [numTraceKinds]string{
	TraceRound:        "round",
	TraceSensorState:  "sensor-state",
	TraceHeadState:    "head-state",
	TraceBurstStart:   "burst-start",
	TraceDelivered:    "delivered",
	TraceChannelFail:  "channel-fail",
	TraceCollision:    "collision",
	TraceDrop:         "drop",
	TraceDeferral:     "deferral",
	TraceDeath:        "death",
	TraceRevive:       "revive",
	TraceMove:         "move",
	TraceInterference: "interference",
	TraceSink:         "sink",
}

func (k TraceKind) String() string {
	if k >= 0 && int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// TraceEvent is one observable protocol event. Tracing is pull-free: when
// Config.Trace is non-nil, the simulation calls it synchronously at each
// event; the callback must not mutate simulation state.
type TraceEvent struct {
	T      sim.Time
	Kind   TraceKind
	Node   int    // acting node index (-1 when network-wide)
	Value  int    // kind-specific quantity (burst size, class, count)
	Detail string // kind-specific label (state name, drop reason)
}

func (e TraceEvent) String() string {
	if e.Detail != "" {
		return fmt.Sprintf("%.6f %s node=%d v=%d %s", e.T.Seconds(), e.Kind, e.Node, e.Value, e.Detail)
	}
	return fmt.Sprintf("%.6f %s node=%d v=%d", e.T.Seconds(), e.Kind, e.Node, e.Value)
}

// emit publishes a trace event if tracing is enabled.
func (net *Network) emit(kind TraceKind, node int, value int, detail string) {
	if net.cfg.Trace == nil {
		return
	}
	net.cfg.Trace(TraceEvent{T: net.eng.Now(), Kind: kind, Node: node, Value: value, Detail: detail})
}
