package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/queueing"
	"repro/internal/sim"
)

// testConfig returns a small, fast configuration (25 nodes, 60 s) that
// still exercises clustering, contention, fading, and threshold logic.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 25
	cfg.FieldWidth = 60
	cfg.FieldHeight = 60
	cfg.Horizon = 60 * sim.Second
	cfg.SampleInterval = 2 * sim.Second
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.FieldWidth = 0 },
		func(c *Config) { c.ArrivalRatePerSecond = -1 },
		func(c *Config) { c.PacketSizeBits = 0 },
		func(c *Config) { c.BufferCapacity = -1 },
		func(c *Config) { c.InitialEnergyJ = 0 },
		func(c *Config) { c.RoundLength = 0 },
		func(c *Config) { c.HeadFraction = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.SampleInterval = 0 },
		func(c *Config) { c.BookkeepingInterval = 0 },
		func(c *Config) { c.DeadFraction = 0 },
		func(c *Config) { c.Adjust.Classes = 3 }, // mismatch with 4-mode table
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func runPolicy(t *testing.T, p queueing.ThresholdPolicy) Result {
	t.Helper()
	cfg := testConfig()
	cfg.Policy = p
	return New(cfg).Run()
}

// Energy conservation: for every node, initial = remaining + consumed, and
// the per-cause breakdown sums to the consumption.
func TestEnergyConservation(t *testing.T) {
	for _, p := range []queueing.ThresholdPolicy{queueing.PolicyNone, queueing.PolicyAdaptive, queueing.PolicyFixedHighest} {
		r := runPolicy(t, p)
		var byCause float64
		for _, j := range r.EnergyByCause {
			byCause += j
		}
		if math.Abs(byCause-r.TotalConsumedJ) > 1e-6 {
			t.Errorf("%v: cause breakdown %v != total consumed %v", p, byCause, r.TotalConsumedJ)
		}
		for _, n := range r.Nodes {
			if math.Abs(n.RemainingJ+n.ConsumedJ-10) > 1e-9 {
				t.Errorf("%v: node %d energy not conserved: %v + %v != 10", p, n.Index, n.RemainingJ, n.ConsumedJ)
			}
		}
	}
}

// Traffic conservation: delivered + drops <= generated, and the delivery
// rate matches the counts.
func TestTrafficAccounting(t *testing.T) {
	for _, p := range []queueing.ThresholdPolicy{queueing.PolicyNone, queueing.PolicyAdaptive, queueing.PolicyFixedHighest} {
		r := runPolicy(t, p)
		if r.Generated == 0 {
			t.Fatalf("%v: no packets generated", p)
		}
		if r.Delivered+r.DroppedBuffer+r.DroppedRetry > r.Generated {
			t.Errorf("%v: delivered %d + drops %d+%d exceeds generated %d",
				p, r.Delivered, r.DroppedBuffer, r.DroppedRetry, r.Generated)
		}
		if want := float64(r.Delivered) / float64(r.Generated); math.Abs(r.DeliveryRate-want) > 1e-12 {
			t.Errorf("%v: delivery rate %v, want %v", p, r.DeliveryRate, want)
		}
		if r.DeliveryRate < 0.5 {
			t.Errorf("%v: delivery rate %v suspiciously low at moderate load", p, r.DeliveryRate)
		}
	}
}

// Determinism: two runs with equal seeds are bit-identical; a different
// seed diverges.
func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	a := New(cfg).Run()
	b := New(cfg).Run()
	if a.TotalConsumedJ != b.TotalConsumedJ || a.Delivered != b.Delivered ||
		a.MeanDelayMs != b.MeanDelayMs || a.CollisionEvents != b.CollisionEvents {
		t.Fatalf("equal seeds diverged: %+v vs %+v", a.Generated, b.Generated)
	}
	for i := range a.Nodes {
		if a.Nodes[i].RemainingJ != b.Nodes[i].RemainingJ {
			t.Fatalf("node %d energy differs across identical runs", i)
		}
	}
	cfg.Seed = 2
	c := New(cfg).Run()
	if c.TotalConsumedJ == a.TotalConsumedJ && c.Delivered == a.Delivered {
		t.Fatal("different seeds produced identical results")
	}
}

// The paper's core energy ordering at moderate load: Scheme 2 <= Scheme 1
// <= pure LEACH in both total consumption and per-packet energy.
func TestProtocolEnergyOrdering(t *testing.T) {
	leach := runPolicy(t, queueing.PolicyNone)
	s1 := runPolicy(t, queueing.PolicyAdaptive)
	s2 := runPolicy(t, queueing.PolicyFixedHighest)
	if !(s2.TotalConsumedJ < s1.TotalConsumedJ && s1.TotalConsumedJ < leach.TotalConsumedJ) {
		t.Errorf("total energy ordering violated: leach=%.1f s1=%.1f s2=%.1f",
			leach.TotalConsumedJ, s1.TotalConsumedJ, s2.TotalConsumedJ)
	}
	if !(s2.EnergyPerPktJ < s1.EnergyPerPktJ && s1.EnergyPerPktJ < leach.EnergyPerPktJ) {
		t.Errorf("per-packet energy ordering violated: leach=%.4g s1=%.4g s2=%.4g",
			leach.EnergyPerPktJ, s1.EnergyPerPktJ, s2.EnergyPerPktJ)
	}
	// The headline claim: CAEM saves a substantial fraction per packet.
	saving := 1 - s1.EnergyPerPktJ/leach.EnergyPerPktJ
	if saving < 0.15 {
		t.Errorf("Scheme 1 per-packet saving only %.1f%%, want substantial", 100*saving)
	}
}

// Fairness ordering: Scheme 2 (fixed highest threshold) must be least fair
// (largest queue-length stddev); Scheme 1's adaptation must beat it.
func TestFairnessOrdering(t *testing.T) {
	s1 := runPolicy(t, queueing.PolicyAdaptive)
	s2 := runPolicy(t, queueing.PolicyFixedHighest)
	if !(s1.QueueStdDev < s2.QueueStdDev) {
		t.Errorf("fairness ordering violated: s1=%.2f s2=%.2f", s1.QueueStdDev, s2.QueueStdDev)
	}
}

// Channel-adaptive schemes defer on CSI; pure LEACH never does.
func TestDeferralBehaviour(t *testing.T) {
	leach := runPolicy(t, queueing.PolicyNone)
	s2 := runPolicy(t, queueing.PolicyFixedHighest)
	if leach.MAC.DeferralsCSI != 0 {
		t.Errorf("pure LEACH deferred on CSI %d times, want 0", leach.MAC.DeferralsCSI)
	}
	if s2.MAC.DeferralsCSI == 0 {
		t.Error("Scheme 2 never deferred on CSI")
	}
	// Pure LEACH transmits over bad channels, so it must see channel
	// failures; Scheme 2's admission control should make them rare.
	if leach.MAC.ChannelFails == 0 {
		t.Error("pure LEACH saw no channel failures on a fading channel")
	}
	if s2.MAC.ChannelFails > leach.MAC.ChannelFails {
		t.Errorf("Scheme 2 channel fails (%d) exceed pure LEACH (%d)",
			s2.MAC.ChannelFails, leach.MAC.ChannelFails)
	}
}

// Scheme 2 only ever transmits at the top class; pure LEACH uses the whole
// mode spectrum on a fading channel.
func TestModeUsageByPolicy(t *testing.T) {
	leach := runPolicy(t, queueing.PolicyNone)
	s2 := runPolicy(t, queueing.PolicyFixedHighest)
	top := len(s2.ModeCounts) - 1
	for c := 0; c < top; c++ {
		// Admission happens at the top threshold; the channel can decay
		// between admission and a later packet in the burst, so allow a
		// tiny residue below the top class.
		if s2.ModeCounts[c] > s2.ModeCounts[top]/20 {
			t.Errorf("Scheme 2 sent %d packets at class %d (top class: %d)", s2.ModeCounts[c], c, s2.ModeCounts[top])
		}
	}
	spread := 0
	for _, c := range leach.ModeCounts {
		if c > 0 {
			spread++
		}
	}
	if spread < 3 {
		t.Errorf("pure LEACH used only %d mode classes, want >= 3", spread)
	}
}

// Nodes must die when the battery is tiny, and death bookkeeping must be
// consistent.
func TestNodeDeathBookkeeping(t *testing.T) {
	cfg := testConfig()
	cfg.InitialEnergyJ = 0.3
	cfg.Horizon = 300 * sim.Second
	r := New(cfg).Run()
	if len(r.Deaths) == 0 {
		t.Fatal("no deaths with a 0.3 J battery over 300 s")
	}
	dead := 0
	for _, n := range r.Nodes {
		if n.Dead {
			dead++
			if n.RemainingJ != 0 {
				t.Errorf("dead node %d has %v J remaining", n.Index, n.RemainingJ)
			}
			if n.DiedAt <= 0 || n.DiedAt > r.Elapsed {
				t.Errorf("node %d died at %v outside the run", n.Index, n.DiedAt)
			}
		}
	}
	if dead != len(r.Deaths) {
		t.Fatalf("dead nodes %d != recorded deaths %d", dead, len(r.Deaths))
	}
	if r.AliveAtEnd != cfg.Nodes-dead {
		t.Fatalf("alive %d + dead %d != %d", r.AliveAtEnd, dead, cfg.Nodes)
	}
	// Deaths are recorded in time order.
	for i := 1; i < len(r.Deaths); i++ {
		if r.Deaths[i] < r.Deaths[i-1] {
			t.Fatal("deaths out of order")
		}
	}
}

// With StopWhenNetworkDead, the run ends near the 80%-dead crossing rather
// than the horizon.
func TestStopWhenNetworkDead(t *testing.T) {
	cfg := testConfig()
	cfg.InitialEnergyJ = 0.3
	cfg.Horizon = 2000 * sim.Second
	cfg.StopWhenNetworkDead = true
	r := New(cfg).Run()
	if !r.NetworkDead {
		t.Fatal("network did not die with 0.3 J batteries")
	}
	if r.Elapsed >= cfg.Horizon {
		t.Fatalf("run did not stop early: elapsed %v", r.Elapsed)
	}
	if r.Elapsed < r.NetworkLifetime {
		t.Fatalf("stopped (%v) before the recorded lifetime (%v)", r.Elapsed, r.NetworkLifetime)
	}
}

// The energy time series is monotone non-increasing (batteries only drain)
// and starts at the initial level.
func TestEnergySeriesMonotone(t *testing.T) {
	r := runPolicy(t, queueing.PolicyAdaptive)
	pts := r.EnergySeries.Points()
	if len(pts) < 10 {
		t.Fatalf("energy series has %d samples", len(pts))
	}
	if pts[0].V != 10 {
		t.Fatalf("first sample %v, want initial 10 J", pts[0].V)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V > pts[i-1].V+1e-9 {
			t.Fatalf("average remaining energy increased at %v", pts[i].T)
		}
	}
}

// The alive series is monotone non-increasing and matches the final count.
func TestAliveSeries(t *testing.T) {
	cfg := testConfig()
	cfg.InitialEnergyJ = 0.3
	cfg.Horizon = 300 * sim.Second
	r := New(cfg).Run()
	pts := r.AliveSeries.Points()
	if pts[0].V != float64(cfg.Nodes) {
		t.Fatalf("alive series starts at %v", pts[0].V)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V > pts[i-1].V {
			t.Fatal("alive count increased")
		}
	}
}

// Zero traffic: the network idles; only baseline/sleep/tone-idle power and
// cluster-head duty drain; no packets move.
func TestZeroTraffic(t *testing.T) {
	cfg := testConfig()
	cfg.ArrivalRatePerSecond = 0
	r := New(cfg).Run()
	if r.Generated != 0 || r.Delivered != 0 {
		t.Fatalf("zero-rate run moved packets: gen %d del %d", r.Generated, r.Delivered)
	}
	if r.EnergyByCause[energy.DataTx] != 0 {
		t.Fatalf("zero-rate run spent %v J on data tx", r.EnergyByCause[energy.DataTx])
	}
	if r.TotalConsumedJ <= 0 {
		t.Fatal("idle network consumed nothing (baseline/CH duty missing)")
	}
}

// Higher load must not decrease total energy consumption.
func TestLoadMonotonicity(t *testing.T) {
	cfg := testConfig()
	cfg.ArrivalRatePerSecond = 2
	low := New(cfg).Run()
	cfg.ArrivalRatePerSecond = 10
	high := New(cfg).Run()
	if high.TotalConsumedJ <= low.TotalConsumedJ {
		t.Errorf("energy did not grow with load: %.1f (load 2) vs %.1f (load 10)",
			low.TotalConsumedJ, high.TotalConsumedJ)
	}
	if high.Generated <= low.Generated {
		t.Error("generated packets did not grow with load")
	}
}

// Rounds advance on schedule.
func TestRoundRotation(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 100 * sim.Second
	cfg.RoundLength = 10 * sim.Second
	r := New(cfg).Run()
	if r.Rounds < 10 || r.Rounds > 11 {
		t.Fatalf("rounds = %d over 100 s with 10 s rounds", r.Rounds)
	}
}

// Tiny network (one head, one member) still works end to end.
func TestTwoNodeNetwork(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 2
	cfg.FieldWidth, cfg.FieldHeight = 20, 20
	r := New(cfg).Run()
	if r.Delivered == 0 {
		t.Fatal("two-node network delivered nothing")
	}
}

// Unbounded buffers (fairness experiment setting) must never drop on
// overflow.
func TestUnboundedBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.BufferCapacity = 0
	cfg.Policy = queueing.PolicyFixedHighest
	r := New(cfg).Run()
	if r.DroppedBuffer != 0 {
		t.Fatalf("unbounded buffers dropped %d packets", r.DroppedBuffer)
	}
}

// Delay accounting: delays are positive and bounded by the run length.
func TestDelayBounds(t *testing.T) {
	r := runPolicy(t, queueing.PolicyAdaptive)
	if r.MeanDelayMs < 0 {
		t.Fatalf("negative mean delay %v", r.MeanDelayMs)
	}
	if r.MaxDelayMs > r.Elapsed.Millis() {
		t.Fatalf("max delay %v ms exceeds run length", r.MaxDelayMs)
	}
	if r.MeanDelayMs > r.MaxDelayMs {
		t.Fatal("mean delay exceeds max delay")
	}
}

// Run panics if invoked twice on the same Network.
func TestRunTwicePanics(t *testing.T) {
	net := New(testConfig())
	net.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	net.Run()
}

func BenchmarkSimulationSecond(b *testing.B) {
	// Cost of simulating one network-second at the paper's scale.
	cfg := DefaultConfig()
	cfg.Horizon = sim.Time(b.N) * sim.Second
	cfg.SampleInterval = 100 * sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	New(cfg).Run()
}

// Per-round statistics must cover the whole run: deliveries and energy
// sum to the totals, rounds tile the timeline.
func TestRoundReports(t *testing.T) {
	cfg := testConfig()
	r := New(cfg).Run()
	if len(r.RoundReports) != r.Rounds {
		t.Fatalf("round reports %d != rounds %d", len(r.RoundReports), r.Rounds)
	}
	var delivered uint64
	var consumed float64
	for i, rs := range r.RoundReports {
		if rs.Index != i {
			t.Fatalf("round %d has index %d", i, rs.Index)
		}
		if rs.End <= rs.Start && i < len(r.RoundReports)-1 {
			t.Fatalf("round %d has no duration (%v..%v)", i, rs.Start, rs.End)
		}
		if rs.Heads < 1 {
			t.Fatalf("round %d elected %d heads", i, rs.Heads)
		}
		if i > 0 && rs.Start != r.RoundReports[i-1].End {
			t.Fatalf("round %d does not start where round %d ended", i, i-1)
		}
		delivered += rs.Delivered
		consumed += rs.ConsumedJ
	}
	if delivered != r.Delivered {
		t.Fatalf("per-round delivered %d != total %d", delivered, r.Delivered)
	}
	if diff := consumed - r.TotalConsumedJ; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("per-round energy %v != total %v", consumed, r.TotalConsumedJ)
	}
}

// End-to-end: a real simulation with tracing enabled must emit a stream
// whose counts agree with the run's result metrics.
func TestTraceCountsMatchResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 15
	cfg.FieldWidth, cfg.FieldHeight = 50, 50
	cfg.Horizon = 40 * sim.Second
	counts := map[TraceKind]uint64{}
	var events []TraceEvent
	cfg.Trace = func(e TraceEvent) {
		counts[e.Kind]++
		events = append(events, e)
	}
	res := New(cfg).Run()

	if len(events) == 0 {
		t.Fatal("no trace events from a live run")
	}
	// Delivered trace events cover radio deliveries (head self-deliveries
	// and election flushes are local, not radio events).
	var modes uint64
	for _, m := range res.ModeCounts {
		modes += m
	}
	if got := counts[TraceDelivered]; got != modes {
		t.Fatalf("delivered trace events %d != radio deliveries %d", got, modes)
	}
	if got := counts[TraceChannelFail]; got != res.MAC.ChannelFails {
		t.Fatalf("channel-fail events %d != counter %d", got, res.MAC.ChannelFails)
	}
	if got := counts[TraceCollision]; got != res.CollisionEvents {
		t.Fatalf("collision events %d != counter %d", got, res.CollisionEvents)
	}
	if got := counts[TraceDrop]; got != res.DroppedBuffer+res.DroppedRetry {
		t.Fatalf("drop events %d != drops %d", got, res.DroppedBuffer+res.DroppedRetry)
	}
	if got := counts[TraceRound]; int(got) != res.Rounds {
		t.Fatalf("round events %d != rounds %d", got, res.Rounds)
	}
	if got := counts[TraceDeferral]; got != res.MAC.DeferralsCSI+res.MAC.DeferralsBusy {
		t.Fatalf("deferral events %d != counters %d", got, res.MAC.DeferralsCSI+res.MAC.DeferralsBusy)
	}
	// Events arrive in non-decreasing time order.
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatal("trace events out of time order")
		}
	}
}

func TestTraceKindStrings(t *testing.T) {
	if numTraceKinds != 14 {
		t.Fatalf("trace kinds = %d", numTraceKinds)
	}
	seen := map[string]bool{}
	for k := TraceKind(0); k < numTraceKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "TraceKind(") {
			t.Errorf("kind %d unnamed", int(k))
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if TraceKind(99).String() != "TraceKind(99)" {
		t.Error("unknown kind fallback wrong")
	}
	e := TraceEvent{T: sim.Second, Kind: TraceDrop, Node: 3, Detail: "buffer"}
	if !strings.Contains(e.String(), "drop") || !strings.Contains(e.String(), "buffer") {
		t.Errorf("event string = %q", e.String())
	}
	e2 := TraceEvent{T: sim.Second, Kind: TraceDeath, Node: 3}
	if !strings.Contains(e2.String(), "death") {
		t.Errorf("event string = %q", e2.String())
	}
}
