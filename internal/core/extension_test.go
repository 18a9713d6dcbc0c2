package core

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

// The base-station forwarding extension must move aggregated bits, cost
// the heads energy, and leave the protocol-level metrics otherwise sane.
func TestBaseStationForwarding(t *testing.T) {
	cfg := testConfig()
	cfg.BaseStationForwarding = true
	r := New(cfg).Run()
	if r.ForwardedBits == 0 {
		t.Fatal("forwarding enabled but no bits reached the base station")
	}
	if r.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	// The aggregate is a compression of delivered payload: forwarded bits
	// must stay below delivered payload x ratio (some residue is pending
	// at round boundaries).
	maxAgg := float64(r.Delivered) * float64(cfg.PacketSizeBits) * cfg.AggregationRatio
	if float64(r.ForwardedBits) > maxAgg+1 {
		t.Fatalf("forwarded %d bits exceeds aggregate bound %.0f", r.ForwardedBits, maxAgg)
	}
	if float64(r.ForwardedBits) < 0.5*maxAgg {
		t.Fatalf("forwarded only %d of ~%.0f aggregate bits", r.ForwardedBits, maxAgg)
	}
}

// With forwarding off (the paper's setting), no aggregate moves.
func TestForwardingOffByDefault(t *testing.T) {
	r := New(testConfig()).Run()
	if r.ForwardedBits != 0 {
		t.Fatalf("forwarding disabled but %d bits forwarded", r.ForwardedBits)
	}
}

// Forwarding consumes head energy — but the total-energy inequality is
// only robust when the forwarding airtime dominates. Forwarding also
// occupies the data channel, and members defer while it does, saving
// their own transmit/collision energy; at the default AggregationRatio
// (0.1) those second-order savings are the same magnitude as the heads'
// forwarding cost (the gap was ~0.3% of total consumption at the seed
// commit, and its sign depends on the channel realization — the
// coherence-block fading model flipped it). The test therefore raises
// the ratio to 0.5 so the first-order cost dominates and the assertion
// tests the mechanism rather than realization noise.
func TestForwardingCostsEnergy(t *testing.T) {
	cfg := testConfig()
	cfg.AggregationRatio = 0.5
	off := New(cfg).Run()
	cfg.BaseStationForwarding = true
	on := New(cfg).Run()
	if on.TotalConsumedJ <= off.TotalConsumedJ {
		t.Fatalf("forwarding run consumed %.2f J, base run %.2f J", on.TotalConsumedJ, off.TotalConsumedJ)
	}
}

func TestForwardingConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.BaseStationForwarding = true
	cfg.ForwardInterval = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero ForwardInterval accepted")
	}
	cfg = testConfig()
	cfg.BaseStationForwarding = true
	cfg.AggregationRatio = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("AggregationRatio > 1 accepted")
	}
}

// Failure injection: kill the first round's cluster heads mid-round by
// draining their batteries directly, and verify the network recovers at
// the next election (members re-cluster, traffic keeps flowing).
func TestHeadDeathRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 80 * sim.Second
	net := New(cfg)

	var killedAt sim.Time = 5 * sim.Second
	var killed []int
	net.eng.Schedule(killedAt, func() {
		for _, cl := range net.clusters {
			h := cl.head
			killed = append(killed, h.idx)
			// Drain the head's battery; the next draw kills it, and the
			// cluster must collapse cleanly.
			h.battery.Draw(energy.Baseline, h.battery.Remaining()-1e-9)
		}
	})
	r := net.Run()

	if len(killed) == 0 {
		t.Fatal("injection did not run")
	}
	for _, idx := range killed {
		if !r.Nodes[idx].Dead {
			t.Errorf("injected head %d still alive", idx)
		}
	}
	if r.AliveAtEnd != cfg.Nodes-len(killed) {
		t.Fatalf("alive %d, want %d (only injected heads die)", r.AliveAtEnd, cfg.Nodes-len(killed))
	}
	// Traffic must keep flowing after the collapse: packets delivered in
	// the remaining rounds far outnumber the pre-kill seconds' worth.
	if r.Delivered < r.Generated/2 {
		t.Fatalf("delivery collapsed after head deaths: %d/%d", r.Delivered, r.Generated)
	}
}

// Forwarding + head death: the extension's pending events must not fire on
// collapsed clusters (this exercises the gen/collapse guards).
func TestForwardingSurvivesHeadDeath(t *testing.T) {
	cfg := testConfig()
	cfg.BaseStationForwarding = true
	cfg.Horizon = 80 * sim.Second
	net := New(cfg)
	net.eng.Schedule(5*sim.Second, func() {
		for _, cl := range net.clusters {
			cl.head.battery.Draw(energy.Baseline, cl.head.battery.Remaining()-1e-9)
		}
	})
	r := net.Run()
	if r.ForwardedBits == 0 {
		t.Fatal("no forwarding after recovery rounds")
	}
}
