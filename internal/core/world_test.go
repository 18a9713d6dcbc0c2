package core

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

// worldConfig is a small multi-node world with background traffic, used
// to exercise the World mutation surface.
func worldConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 10
	cfg.FieldWidth, cfg.FieldHeight = 30, 30
	cfg.Horizon = 40 * sim.Second
	cfg.RoundLength = 10 * sim.Second
	return cfg
}

// TestWorldKillHeadCollapsesCluster: killing the current cluster head
// must collapse its cluster — members go back to sleep until the next
// election — without disturbing determinism.
func TestWorldKillHeadCollapsesCluster(t *testing.T) {
	cfg := worldConfig()
	cfg.World = []WorldEvent{{At: 5 * sim.Second, Apply: func(w *World) {
		// Kill every current head (found via the live network below).
		for i := 0; i < len(w.net.nodes); i++ {
			if w.net.nodes[i].isHead {
				w.Kill(i)
			}
		}
	}}}
	net := New(cfg)
	res := net.Run()
	if res.AliveAtEnd >= cfg.Nodes {
		t.Fatalf("no head died: alive %d", res.AliveAtEnd)
	}
	for _, cl := range net.clusters {
		if !cl.head.alive && !cl.collapsed {
			t.Fatal("dead head's cluster not collapsed")
		}
	}
	// Later rounds must still elect among the survivors.
	if res.Rounds < 3 {
		t.Fatalf("rounds = %d, want the run to continue past the kill", res.Rounds)
	}
}

// TestWorldReviveRejoinsElection: a revived node must re-enter clustering
// and resume generating traffic.
func TestWorldReviveRejoinsElection(t *testing.T) {
	cfg := worldConfig()
	cfg.World = []WorldEvent{
		{At: 2 * sim.Second, Apply: func(w *World) { w.Kill(3) }},
		{At: 15 * sim.Second, Apply: func(w *World) { w.Revive(3, 5) }},
	}
	net := New(cfg)
	res := net.Run()
	if res.AliveAtEnd != cfg.Nodes {
		t.Fatalf("alive = %d, want %d", res.AliveAtEnd, cfg.Nodes)
	}
	n := net.nodes[3]
	if !n.alive || n.clusterIdx < 0 {
		t.Fatalf("revived node not clustered: alive=%v clusterIdx=%d", n.alive, n.clusterIdx)
	}
	if n.serviceShare == 0 && n.buf.Len() == 0 && !n.isHead {
		t.Error("revived node generated no observable traffic")
	}
}

// TestWorldKillRecordsDeathTime: a world-event kill must report the kill
// instant as the death time even though the battery never exhausted, and
// network lifetime must reflect the concurrent dead fraction — nodes that
// die, revive, and die again are not double-counted.
func TestWorldKillRecordsDeathTime(t *testing.T) {
	cfg := worldConfig()
	cfg.DeadFraction = 0.5
	kill := func(w *World) {
		for i := 0; i < 4; i++ {
			w.Kill(i)
		}
	}
	cfg.World = []WorldEvent{
		{At: 5 * sim.Second, Apply: kill},
		{At: 15 * sim.Second, Apply: func(w *World) {
			for i := 0; i < 4; i++ {
				w.Revive(i, 1)
			}
		}},
		{At: 25 * sim.Second, Apply: kill},
	}
	res := New(cfg).Run()
	for i := 0; i < 4; i++ {
		if !res.Nodes[i].Dead {
			t.Fatalf("node %d not dead at end", i)
		}
		if res.Nodes[i].DiedAt != 25*sim.Second {
			t.Fatalf("node %d DiedAt = %v, want the second kill at 25 s", i, res.Nodes[i].DiedAt)
		}
	}
	// 8 cumulative death events, but never more than 4 dead at once out
	// of 10: the network (DeadFraction 0.5 -> need 5) never died.
	if res.NetworkDead {
		t.Fatalf("network declared dead at %v with at most 4/10 concurrently dead", res.NetworkLifetime)
	}
	if res.FirstDeath != 5*sim.Second || !res.FirstDeathValid {
		t.Fatalf("first death = %v (%v), want 5 s", res.FirstDeath, res.FirstDeathValid)
	}
}

// TestWorldReviveExhaustedBattery: a node that died of battery exhaustion
// can be revived with fresh charge and spends it.
func TestWorldReviveExhaustedBattery(t *testing.T) {
	cfg := worldConfig()
	cfg.NodeEnergyJ = []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 0.02}
	revived := false
	cfg.World = []WorldEvent{
		{At: 20 * sim.Second, Apply: func(w *World) {
			if w.net.nodes[9].alive {
				return
			}
			w.Revive(9, 1)
			revived = true
		}},
	}
	net := New(cfg)
	net.Run()
	n := net.nodes[9]
	if !revived {
		t.Skip("node 9 survived on 0.02 J; cannot exercise exhausted-revive here")
	}
	if !n.alive && n.battery.Dead() && n.battery.Remaining() > 0 {
		t.Fatal("revived battery inconsistent")
	}
	if n.battery.Consumed() <= 0.02-1e-12 {
		t.Error("revived node never spent its fresh charge")
	}
}

// TestWorldRateAndEnergyMutations: arrival-rate changes and top-ups take
// effect mid-run.
func TestWorldRateAndEnergyMutations(t *testing.T) {
	cfg := worldConfig()
	cfg.World = []WorldEvent{
		{At: 1 * sim.Second, Apply: func(w *World) {
			for i := 0; i < len(w.net.nodes); i++ {
				w.SetArrivalRate(i, 0)
			}
		}},
	}
	silenced := New(cfg).Run()

	cfg2 := worldConfig()
	base := New(cfg2).Run()
	if silenced.Generated >= base.Generated/4 {
		t.Fatalf("silencing all sources at 1 s left %d of %d packets", silenced.Generated, base.Generated)
	}

	cfg3 := worldConfig()
	cfg3.World = []WorldEvent{
		{At: 1 * sim.Second, Apply: func(w *World) { w.ScaleArrivalRate(0, 4) }},
		{At: 2 * sim.Second, Apply: func(w *World) { w.AddEnergy(0, 3) }},
	}
	net := New(cfg3)
	boosted := net.Run()
	if net.nodes[0].source.RatePerSecond != 4*cfg3.ArrivalRatePerSecond {
		t.Fatalf("rate = %v, want 4x", net.nodes[0].source.RatePerSecond)
	}
	// Consumed excludes recharges, so remaining + consumed - initial is
	// the energy added.
	b := net.nodes[0].battery
	if got := b.Remaining() + b.Consumed() - cfg3.InitialEnergyJ; math.Abs(got-3) > 1e-9 {
		t.Fatalf("recharged = %v, want 3", got)
	}
	if boosted.Generated <= base.Generated {
		t.Fatal("4x rate on one node did not raise total traffic")
	}
}

// TestWorldChannelUpdate: a channel-parameter shift rebuilds links under
// the new parameters deterministically, and an invalid shift panics.
func TestWorldChannelUpdate(t *testing.T) {
	run := func() Result {
		cfg := worldConfig()
		cfg.World = []WorldEvent{
			{At: 5 * sim.Second, Apply: func(w *World) {
				w.UpdateChannel(func(p *channel.Params) {
					p.DopplerHz = 15
					p.ShadowingSigmaDB = 9
				})
			}},
		}
		return New(cfg).Run()
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.TotalConsumedJ != b.TotalConsumedJ {
		t.Fatal("channel update broke determinism")
	}

	base := New(worldConfig()).Run()
	if a.Delivered == base.Delivered && a.MAC.ChannelFails == base.MAC.ChannelFails &&
		a.MAC.DeferralsCSI == base.MAC.DeferralsCSI {
		t.Fatal("channel shift had no observable effect")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("invalid channel shift did not panic")
		}
	}()
	cfg := worldConfig()
	cfg.World = []WorldEvent{
		{At: 1 * sim.Second, Apply: func(w *World) {
			w.UpdateChannel(func(p *channel.Params) { p.PathLossExponent = 99 })
		}},
	}
	New(cfg).Run()
}

// TestWorldConfigValidation: malformed World entries and per-node
// override arrays are rejected up front.
func TestWorldConfigValidation(t *testing.T) {
	cfg := worldConfig()
	cfg.World = []WorldEvent{{At: -1, Apply: func(w *World) {}}}
	if cfg.Validate() == nil {
		t.Error("negative world-event time accepted")
	}
	cfg = worldConfig()
	cfg.World = []WorldEvent{{At: 1}}
	if cfg.Validate() == nil {
		t.Error("nil Apply accepted")
	}
	cfg = worldConfig()
	cfg.NodeArrivalRate = []float64{1, 2}
	if cfg.Validate() == nil {
		t.Error("short NodeArrivalRate accepted")
	}
	cfg = worldConfig()
	cfg.NodeEnergyJ = make([]float64, cfg.Nodes)
	if cfg.Validate() == nil {
		t.Error("zero NodeEnergyJ entries accepted")
	}
}

// TestWorldKillSenderMidBurst: killing the node that currently holds the
// data channel must settle the burst and leave the cluster serviceable.
func TestWorldKillSenderMidBurst(t *testing.T) {
	cfg := worldConfig()
	cfg.ArrivalRatePerSecond = 30 // keep the channel busy
	killed := -1
	cfg.World = []WorldEvent{{At: 3 * sim.Second, Apply: func(w *World) {
		for _, cl := range w.net.clusters {
			if cl.activeTx != nil {
				killed = cl.activeTx.sender.idx
				w.Kill(killed)
				return
			}
		}
		// No burst in flight at this instant; kill any member instead so
		// the run still exercises a death.
		for i := 0; i < len(w.net.nodes); i++ {
			if !w.net.nodes[i].isHead {
				killed = i
				w.Kill(i)
				return
			}
		}
	}}}
	net := New(cfg)
	res := net.Run()
	if killed < 0 {
		t.Fatal("kill hook never fired")
	}
	if net.nodes[killed].alive {
		t.Fatal("killed node still alive")
	}
	if res.AliveAtEnd != cfg.Nodes-1 {
		t.Fatalf("alive = %d, want %d", res.AliveAtEnd, cfg.Nodes-1)
	}
	for _, cl := range net.clusters {
		if cl.activeTx != nil && cl.activeTx.sender == net.nodes[killed] {
			t.Fatal("dead sender's burst never settled")
		}
	}
	if res.Delivered == 0 {
		t.Fatal("network stopped delivering after the mid-burst kill")
	}
}
