package core

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/queueing"
	"repro/internal/sim"
)

// scenarioConfig builds a tightly controlled 2-node world: one head, one
// member, a static perfect channel (no fading, no shadowing), and no
// background traffic — individual protocol actions become observable and
// exactly countable.
func scenarioConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.FieldWidth, cfg.FieldHeight = 10, 10
	cfg.ArrivalRatePerSecond = 0 // traffic injected manually per test
	cfg.Channel.DopplerHz = 0
	cfg.Channel.ShadowingSigmaDB = 0
	cfg.Channel.ReferenceSNRdB = 30     // static, comfortably above every class
	cfg.HeadFraction = 0.05             // 2 nodes: fallback elects exactly one head
	cfg.RoundLength = 1000 * sim.Second // no re-election during a scenario
	cfg.Horizon = 10 * sim.Second
	return cfg
}

// inject enqueues n packets at the given member as if they had just been
// sensed, waking the node exactly as a real arrival does.
func inject(net *Network, nd *node, n int) {
	now := net.eng.Now()
	for i := 0; i < n; i++ {
		p := queueing.Packet{Source: nd.idx, CreatedAt: now, SizeBits: net.cfg.PacketSizeBits}
		net.thr.PacketGenerated()
		if nd.buf.Enqueue(p) {
			nd.adjust.OnArrival(nd.buf.Len())
		}
	}
	if nd.state == mac.SensorSleep && nd.clusterIdx >= 0 &&
		net.cfg.MAC.BurstSize(nd.buf.Len()) > 0 {
		nd.state = mac.SensorSensing
		nd.sensingSince = now
	}
}

// member returns the non-head node after the first round has formed.
func member(net *Network) *node {
	for _, n := range net.nodes {
		if !n.isHead {
			return n
		}
	}
	return nil
}

// A minimum burst of 3 packets on a perfect static channel must be
// delivered completely at the top ABICM class, in one burst, with no
// retries, collisions, or failures.
func TestScenarioSingleBurstDelivery(t *testing.T) {
	cfg := scenarioConfig()
	rec := &eventLog{}
	cfg.Trace = rec.observe
	net := New(cfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 3) })
	res := net.Run()

	if res.Delivered != 3 {
		t.Fatalf("delivered %d, want 3", res.Delivered)
	}
	if res.MAC.BurstsDone != 1 || res.MAC.Attempts != 1 {
		t.Fatalf("bursts %d attempts %d, want 1/1", res.MAC.BurstsDone, res.MAC.Attempts)
	}
	if res.MAC.Collisions != 0 || res.MAC.ChannelFails != 0 || res.DroppedRetry != 0 {
		t.Fatalf("unexpected failures: %+v", res.MAC)
	}
	top := len(res.ModeCounts) - 1
	if res.ModeCounts[top] != 3 {
		t.Fatalf("mode counts %v, want all 3 at top class", res.ModeCounts)
	}
	// The sender must have paid exactly one radio startup.
	startupJ := res.EnergyByCause[energy.DataStartup]
	wantStartup := cfg.Device.StartupEnergy()
	if diff := startupJ - wantStartup; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("startup energy %v, want exactly one startup %v", startupJ, wantStartup)
	}
}

// Below the minimum burst the node must never transmit: two packets sit in
// the buffer forever on an otherwise idle network.
func TestScenarioMinBurstHoldsBack(t *testing.T) {
	cfg := scenarioConfig()
	net := New(cfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 2) })
	res := net.Run()
	if res.Delivered != 0 {
		t.Fatalf("delivered %d with a sub-minimum queue", res.Delivered)
	}
	if res.MAC.Attempts != 0 {
		t.Fatalf("attempts %d, want 0", res.MAC.Attempts)
	}
	if res.Nodes[0].QueueLen+res.Nodes[1].QueueLen != 2 {
		t.Fatal("packets vanished from the buffer")
	}
}

// A queue above MaxBurst is served 8 packets per transmission: 20 packets
// need ceil(20/8) = 3 bursts.
func TestScenarioMaxBurstSplits(t *testing.T) {
	cfg := scenarioConfig()
	net := New(cfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 20) })
	res := net.Run()
	if res.Delivered != 20 {
		t.Fatalf("delivered %d, want 20", res.Delivered)
	}
	if res.MAC.BurstsDone != 3 {
		t.Fatalf("bursts %d, want 3 (8+8+4)", res.MAC.BurstsDone)
	}
}

// On a channel below every mode threshold, a CAEM (Scheme 2) member must
// defer indefinitely and never transmit, while pure LEACH transmits and
// loses packets to the channel.
func TestScenarioHopelessChannel(t *testing.T) {
	base := scenarioConfig()
	base.Channel.ReferenceSNRdB = -5 // far below class 0's 5 dB
	base.Horizon = 30 * sim.Second

	s2cfg := base
	s2cfg.Policy = queueing.PolicyFixedHighest
	net := New(s2cfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 5) })
	res := net.Run()
	if res.MAC.Attempts != 0 {
		t.Fatalf("Scheme 2 transmitted %d times on a hopeless channel", res.MAC.Attempts)
	}
	if res.MAC.DeferralsCSI == 0 {
		t.Fatal("Scheme 2 never recorded a CSI deferral")
	}

	lcfg := base
	lcfg.Policy = queueing.PolicyNone
	net = New(lcfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 5) })
	res = net.Run()
	if res.MAC.Attempts == 0 {
		t.Fatal("pure LEACH never attempted on a hopeless channel")
	}
	if res.MAC.ChannelFails == 0 {
		t.Fatal("pure LEACH saw no channel failures at -5 dB margin")
	}
	if res.DroppedRetry == 0 {
		t.Fatal("retry cap never dropped a packet at sustained failure")
	}
	if res.Delivered != 0 {
		t.Fatalf("pure LEACH delivered %d packets through a -5 dB channel", res.Delivered)
	}
}

// Two members whose queues fill simultaneously must both eventually be
// served — contention resolves via backoff (possibly through a collision).
func TestScenarioTwoContenders(t *testing.T) {
	cfg := scenarioConfig()
	cfg.Nodes = 3
	cfg.HeadFraction = 0.05 // one head, two members
	net := New(cfg)
	net.eng.Schedule(100*sim.Millisecond, func() {
		for _, n := range net.nodes {
			if !n.isHead {
				inject(net, n, 3)
			}
		}
	})
	res := net.Run()
	if res.Delivered != 6 {
		t.Fatalf("delivered %d, want 6 (both contenders served)", res.Delivered)
	}
	for _, n := range res.Nodes {
		if n.QueueLen != 0 {
			t.Fatalf("node %d still queues %d packets", n.Index, n.QueueLen)
		}
	}
}

// The head's receive-side energy must cover exactly the burst airtime at
// the top mode: 3 packets x 1 ms at 0.305 W, within the accrual epsilon of
// the surrounding idle listening.
func TestScenarioHeadReceiveEnergy(t *testing.T) {
	cfg := scenarioConfig()
	net := New(cfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 3) })
	res := net.Run()
	rxJ := res.EnergyByCause[energy.DataRx]
	wantAirtime := 3 * cfg.Modes.Highest().Airtime(cfg.PacketSizeBits).Seconds()
	want := wantAirtime * cfg.Device.DataRxPower
	// The head dwells at Rx power from burst start (including the 500 µs
	// startup lead-in) to burst end, so allow that lead-in as slack.
	slack := (cfg.Device.DataStartupTime.Seconds() + 0.001) * cfg.Device.DataRxPower
	if rxJ < want-1e-9 || rxJ > want+slack {
		t.Fatalf("head rx energy %v J, want [%v, %v]", rxJ, want, want+slack)
	}
}

// eventLog is a minimal trace sink for scenarios.
type eventLog struct {
	events []TraceEvent
}

func (l *eventLog) observe(e TraceEvent) { l.events = append(l.events, e) }

// The trace stream for a single clean burst has the expected structure:
// round → burst-start → 3 deliveries.
func TestScenarioTraceStructure(t *testing.T) {
	cfg := scenarioConfig()
	log := &eventLog{}
	cfg.Trace = log.observe
	net := New(cfg)
	net.eng.Schedule(100*sim.Millisecond, func() { inject(net, member(net), 3) })
	net.Run()

	var kinds []TraceKind
	for _, e := range log.events {
		switch e.Kind {
		case TraceRound, TraceBurstStart, TraceDelivered:
			kinds = append(kinds, e.Kind)
		}
	}
	want := []TraceKind{TraceRound, TraceBurstStart, TraceDelivered, TraceDelivered, TraceDelivered}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace kinds = %v, want %v", kinds, want)
		}
	}
}
