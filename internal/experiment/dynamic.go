package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func fp(v float64) *float64 { return &v }

// dynamicWorldSpec is the stress timeline DynamicWorld subjects every
// protocol to. Times are fractions of the horizon so the scenario scales
// with Options.Scale: a hotspot cluster from t = 0, a churn dip (10% of
// the field fails, later repaired), a network-wide traffic burst, a
// fading storm through the third quarter, and a battery top-up of the
// hotspot near the end.
func dynamicWorldSpec(nodes int, horizon sim.Time) scenario.Spec {
	at := func(frac float64) float64 { return horizon.Seconds() * frac }
	hotspot := scenario.Selector{From: 0, To: nodes / 10}
	churned := scenario.Selector{From: nodes / 10, To: nodes / 5}
	return scenario.Spec{
		Name:        "dynamic-world",
		Description: "hotspot + churn + burst + fading storm + battery service",
		Nodes: []scenario.NodeRule{
			{Nodes: hotspot, RateScale: 4},
		},
		Timeline: []scenario.Event{
			{AtSeconds: at(0.2), Type: scenario.EventKill, Nodes: churned},
			{AtSeconds: at(0.3), Type: scenario.EventBurst, Scale: 3, DurationSeconds: at(0.1)},
			{AtSeconds: at(0.5), Type: scenario.EventChannel, Channel: &scenario.ChannelShift{
				DopplerHz:        fp(10),
				ShadowingSigmaDB: fp(8),
			}},
			{AtSeconds: at(0.6), Type: scenario.EventRevive, Nodes: churned},
			{AtSeconds: at(0.75), Type: scenario.EventChannel, Channel: &scenario.ChannelShift{
				DopplerHz:        fp(2),
				ShadowingSigmaDB: fp(4),
			}},
			{AtSeconds: at(0.8), Type: scenario.EventTopUp, Nodes: hotspot, EnergyJ: 2},
		},
	}
}

// DynamicWorld compares the three protocols under a dynamic world — the
// conditions CAEM was designed for but the paper never evaluates: a
// standing hotspot, node churn, a traffic burst, and a mid-run fading
// storm. The static paper setup orders the protocols by energy frugality
// (Scheme 2 < Scheme 1 < LEACH consumption); this experiment shows
// whether that ordering survives when the world moves underneath them.
// Every cell aggregates the seed replicates as mean ± 95% CI, so the
// ordering verdict is a statistical statement rather than one
// realization's anecdote.
func DynamicWorld(opts Options) Report {
	horizon := opts.horizon(600 * sim.Second)
	spec := dynamicWorldSpec(opts.nodes(), horizon)

	cells := make([]job, 0, 3)
	for _, pc := range protocolCases() {
		cfg := opts.baseConfig()
		cfg.Policy = pc.policy
		cfg.Horizon = horizon
		// Compile per cell: each cell needs its own World slice (the
		// closures are stateless and shareable, but appending to a shared
		// cfg.World across cells would double-apply events).
		if err := scenario.Compile(spec, &cfg); err != nil {
			panic(fmt.Sprintf("experiment: dynamic-world spec failed to compile: %v", err))
		}
		cells = append(cells, job{Label: "dynamicworld/" + pc.name, Config: cfg})
	}
	reps := opts.runReplicated(cells)

	consumed := func(r core.Result) float64 { return r.TotalConsumedJ }
	tab := Table{Headers: []string{"protocol", "consumed(J)", "delivered", "delivery", "delay(ms)", "alive-at-end", "deferrals-csi", "collisions"}}
	for i, pc := range protocolCases() {
		rep := reps[i]
		tab.AddRow(pc.name,
			rep.cell(f2, consumed),
			rep.cell(f0, func(r core.Result) float64 { return float64(r.Delivered) }),
			rep.cell(pct, func(r core.Result) float64 { return r.DeliveryRate }),
			rep.cell(f1, func(r core.Result) float64 { return r.MeanDelayMs }),
			rep.cell(f0, func(r core.Result) float64 { return float64(r.AliveAtEnd) }),
			rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.DeferralsCSI) }),
			rep.cell(f0, func(r core.Result) float64 { return float64(r.CollisionEvents) }),
		)
	}

	notes := []string{
		fmt.Sprintf("world: %s over %.0f s (%d declared events); %s",
			spec.Description, horizon.Seconds(), len(spec.Timeline), repNote(opts)),
	}
	leach, s1, s2 := reps[0], reps[1], reps[2]
	if s1.mean(consumed) < leach.mean(consumed) && s2.mean(consumed) < leach.mean(consumed) {
		notes = append(notes, fmt.Sprintf(
			"the paper's static-world energy ordering survives the dynamic world: Scheme1 %.1f J and Scheme2 %.1f J vs pure LEACH %.1f J (replicate means)",
			s1.mean(consumed), s2.mean(consumed), leach.mean(consumed)))
	} else {
		notes = append(notes, "the static-world energy ordering did NOT survive the dynamic world — investigate")
	}
	deliveryOf := func(rep replicates) string {
		return ciString(rep.stream(func(r core.Result) float64 { return r.DeliveryRate }), pct)
	}
	notes = append(notes, fmt.Sprintf(
		"delivery under stress: pure-LEACH %s, Scheme1 %s, Scheme2 %s (CSI gating defers transmissions during the fading storm)",
		deliveryOf(leach), deliveryOf(s1), deliveryOf(s2)))

	return Report{
		ID:    "dynamicworld",
		Title: "Protocol comparison under a dynamic world (hotspot, churn, burst, fading storm)",
		Table: tab,
		Notes: notes,
		Charts: []plot.Chart{
			{
				Title:  "Dynamic world — nodes alive vs time (replicate mean)",
				XLabel: "elapsed time (s)",
				YLabel: "nodes alive",
				Series: []plot.Series{
					meanSeries("pure-LEACH", reps[0].runs, aliveSeries, horizon, 240),
					meanSeries("Scheme1", reps[1].runs, aliveSeries, horizon, 240),
					meanSeries("Scheme2", reps[2].runs, aliveSeries, horizon, 240),
				},
			},
			{
				Title:  "Dynamic world — average remaining energy vs time (replicate mean)",
				XLabel: "elapsed time (s)",
				YLabel: "average remaining energy (J)",
				Series: []plot.Series{
					meanSeries("pure-LEACH", reps[0].runs, energySeries, horizon, 240),
					meanSeries("Scheme1", reps[1].runs, energySeries, horizon, 240),
					meanSeries("Scheme2", reps[2].runs, energySeries, horizon, 240),
				},
			},
		},
	}
}
