package caem

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestElisionMatchesEager: an untraced run stops simulating the arrivals
// a full buffer drops and counts them when the node catches up, while a
// traced run keeps the eager arrival chain. Both must give the same
// Result. The configs are built the way runScenarioPooled builds them,
// on saturated dense worlds with base-station forwarding, under every
// protocol. On gen/dense/2/0 the elided run must also execute at least
// 60% fewer engine events.
func TestElisionMatchesEager(t *testing.T) {
	var scs []Scenario
	for _, g := range []struct {
		count int
		seed  uint64
	}{{2, 1}, {1, 2}} {
		gen, err := GenerateScenarios("dense", g.count, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, gen...)
	}
	for _, sc := range scs {
		base, err := ScenarioConfig(sc)
		if err != nil {
			t.Fatal(err)
		}
		base.DurationSeconds = 120
		base.Advanced.BaseStationForwarding = true
		for _, p := range Protocols() {
			cfg := base
			cfg.Protocol = p
			simCfg, err := cfg.simConfig()
			if err != nil {
				t.Fatal(err)
			}
			if err := scenario.Compile(sc, &simCfg); err != nil {
				t.Fatal(err)
			}
			traced := simCfg
			traced.Trace = func(core.TraceEvent) {}
			eagerNet, elidedNet := core.New(traced), core.New(simCfg)
			eager, elided := eagerNet.Run(), elidedNet.Run()
			name := sc.Name + "/" + p.String()
			if !reflect.DeepEqual(eager, elided) {
				t.Errorf("%s: elided Result differs from the eager one (generated %d vs %d, dropped at the buffer %d vs %d, delivered %d vs %d)",
					name, elided.Generated, eager.Generated, elided.DroppedBuffer, eager.DroppedBuffer, elided.Delivered, eager.Delivered)
			}
			e, l := eagerNet.Engine().Executed(), elidedNet.Engine().Executed()
			t.Logf("%s: %d of %d arrivals dropped at the buffer; %d events eager, %d elided",
				name, eager.DroppedBuffer, eager.Generated, e, l)
			if sc.Name == "gen/dense/2/0" && 10*l > 4*e {
				t.Errorf("%s: elided run executed %d events, want at most 40%% of the eager run's %d", name, l, e)
			}
		}
	}
}
