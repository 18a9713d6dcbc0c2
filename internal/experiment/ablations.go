package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AblationThresholdParams sweeps Scheme 1's two tuning constants — the
// activation level Q_th and the sampling period m — quantifying the
// energy/fairness/delay trade-off behind the paper's (15, 5) choice
// (DESIGN.md experiment A1).
func AblationThresholdParams(opts Options) Report {
	tab := Table{Headers: []string{"Q_th", "m", "energy/pkt(mJ)", "delay(ms)", "queue-stddev", "drops"}}
	qths := []int{5, 10, 15, 25, 40}
	ms := []int{1, 5, 10}
	if opts.scale() < 0.8 {
		qths = []int{5, 15, 40}
		ms = []int{1, 5}
	}
	var cells []job
	for _, qth := range qths {
		for _, m := range ms {
			cfg := opts.baseConfig()
			cfg.Policy = queueing.PolicyAdaptive
			cfg.Adjust.QueueThreshold = qth
			cfg.Adjust.SampleEvery = m
			cfg.Horizon = opts.horizon(300 * sim.Second)
			cells = append(cells, job{Label: fmt.Sprintf("ablation-threshold/q%d-m%d", qth, m), Config: cfg})
		}
	}
	reps := opts.runReplicated(cells)
	for i, qth := range qths {
		for j, m := range ms {
			rep := reps[i*len(ms)+j]
			tab.AddRow(
				fmt.Sprintf("%d", qth),
				fmt.Sprintf("%d", m),
				rep.cell(f3, func(r core.Result) float64 { return 1000 * r.EnergyPerPktJ }),
				rep.cell(f1, func(r core.Result) float64 { return r.MeanDelayMs }),
				rep.cell(f2, func(r core.Result) float64 { return r.QueueStdDev }),
				rep.cell(f0, func(r core.Result) float64 { return float64(r.DroppedBuffer + r.DroppedRetry) }),
			)
		}
	}
	return Report{
		ID:    "ablation-threshold",
		Title: "Ablation A1: Scheme 1 threshold-adjustment parameters (Q_th, m)",
		Table: tab,
		Notes: []string{
			repNote(opts),
			"small Q_th makes Scheme 1 permissive (more energy per packet, less delay); large Q_th approaches Scheme 2's behaviour",
			"m trades adjustment responsiveness against per-arrival computation; the paper's (15, 5) sits on the knee",
		},
	}
}

// AblationDoppler sweeps the fading rate (DESIGN.md experiment A2). The
// channel coherence time sets how long a deferring node waits for a good
// channel: very slow fading starves Scheme 2 (long fades), very fast
// fading makes the CSI stale between the idle tone and the transmission.
func AblationDoppler(opts Options) Report {
	tab := Table{Headers: []string{
		"doppler(Hz)", "coherence(ms)", "protocol", "energy/pkt(mJ)", "delay(ms)", "csi-deferrals", "channel-fails",
	}}
	dops := []float64{0.5, 1, 2, 4, 8}
	if opts.scale() < 0.8 {
		dops = []float64{0.5, 2, 8}
	}
	pcs := []protocolCase{
		{"Scheme1", queueing.PolicyAdaptive},
		{"Scheme2", queueing.PolicyFixedHighest},
	}
	var cells []job
	for _, d := range dops {
		for _, pc := range pcs {
			cfg := opts.baseConfig()
			cfg.Policy = pc.policy
			cfg.Channel.DopplerHz = d
			cfg.Horizon = opts.horizon(300 * sim.Second)
			cells = append(cells, job{Label: fmt.Sprintf("ablation-doppler/%s/%.1fHz", pc.name, d), Config: cfg})
		}
	}
	reps := opts.runReplicated(cells)
	for i, d := range dops {
		for j, pc := range pcs {
			rep := reps[i*len(pcs)+j]
			tab.AddRow(
				f1(d),
				f1(cells[i*len(pcs)+j].Config.Channel.CoherenceTime().Millis()),
				pc.name,
				rep.cell(f3, func(r core.Result) float64 { return 1000 * r.EnergyPerPktJ }),
				rep.cell(f1, func(r core.Result) float64 { return r.MeanDelayMs }),
				rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.DeferralsCSI) }),
				rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.ChannelFails) }),
			)
		}
	}
	return Report{
		ID:    "ablation-doppler",
		Title: "Ablation A2: channel dynamics (Doppler / coherence time)",
		Table: tab,
		Notes: []string{
			repNote(opts),
			"slower fading (longer coherence) lengthens both good and bad channel spells: deferral counts fall but each wait is longer",
			"faster fading raises channel failures: the CSI measured at the tone pulse ages before the packet finishes",
		},
	}
}

// AblationBurst sweeps the burst-size rules (DESIGN.md experiment A3),
// isolating the radio-startup amortization argument the paper uses to
// justify the minimum of 3 packets per transmission.
func AblationBurst(opts Options) Report {
	tab := Table{Headers: []string{
		"min", "max", "energy/pkt(mJ)", "startup-share", "delay(ms)", "collisions",
	}}
	cases := []struct{ min, max int }{
		{1, 1}, {1, 8}, {3, 8}, {3, 16}, {8, 8},
	}
	if opts.scale() < 0.8 {
		cases = []struct{ min, max int }{{1, 1}, {3, 8}, {8, 8}}
	}
	startupShare := func(r core.Result) float64 {
		if r.CommEnergyJ <= 0 {
			return 0
		}
		return r.EnergyByCause[energy.DataStartup] / r.CommEnergyJ
	}
	var cells []job
	for _, c := range cases {
		cfg := opts.baseConfig()
		cfg.Policy = queueing.PolicyAdaptive
		cfg.MAC.MinBurst = c.min
		cfg.MAC.MaxBurst = c.max
		cfg.Horizon = opts.horizon(300 * sim.Second)
		cells = append(cells, job{Label: fmt.Sprintf("ablation-burst/min%d-max%d", c.min, c.max), Config: cfg})
	}
	reps := opts.runReplicated(cells)
	for i, c := range cases {
		rep := reps[i]
		tab.AddRow(
			fmt.Sprintf("%d", c.min),
			fmt.Sprintf("%d", c.max),
			rep.cell(f3, func(r core.Result) float64 { return 1000 * r.EnergyPerPktJ }),
			rep.cell(pct, startupShare),
			rep.cell(f1, func(r core.Result) float64 { return r.MeanDelayMs }),
			rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.Collisions) }),
		)
	}
	return Report{
		ID:    "ablation-burst",
		Title: "Ablation A3: packets-per-transmission limits (min/max burst)",
		Table: tab,
		Notes: []string{
			repNote(opts),
			"single-packet bursts pay one radio startup per packet — the startup share of communication energy quantifies the paper's min-burst-of-3 rule",
			"uncapped bursts save startups but let one node hold the channel longer, raising delay spread (the paper caps at 8 for fairness)",
		},
	}
}

// All returns every experiment report at the given options, in the
// DESIGN.md §3 index order.
func All(opts Options) []Report {
	return []Report{
		TableI(opts),
		TableII(opts),
		Figure8(opts),
		Figure9(opts),
		Figure10(opts),
		Figure11(opts),
		Figure12(opts),
		NetworkPerformance(opts),
		AblationThresholdParams(opts),
		AblationDoppler(opts),
		AblationBurst(opts),
		AblationCSINoise(opts),
		AblationRician(opts),
		SeedSweep(opts),
		DynamicWorld(opts),
	}
}

// AblationCSINoise sweeps the channel-estimation error (DESIGN.md
// experiment A4). The paper assumes perfect tone-based CSI via channel
// reciprocity; this quantifies how much estimation error the admission
// decision tolerates before CAEM's savings erode.
func AblationCSINoise(opts Options) Report {
	tab := Table{Headers: []string{
		"noise-sigma(dB)", "protocol", "energy/pkt(mJ)", "channel-fails", "delivery", "delay(ms)",
	}}
	sigmas := []float64{0, 1, 2, 4, 8}
	if opts.scale() < 0.8 {
		sigmas = []float64{0, 2, 8}
	}
	pcs := []protocolCase{
		{"Scheme1", queueing.PolicyAdaptive},
		{"Scheme2", queueing.PolicyFixedHighest},
	}
	var cells []job
	for _, sigma := range sigmas {
		for _, pc := range pcs {
			cfg := opts.baseConfig()
			cfg.Policy = pc.policy
			cfg.CSINoiseSigmaDB = sigma
			cfg.Horizon = opts.horizon(300 * sim.Second)
			cells = append(cells, job{Label: fmt.Sprintf("ablation-csinoise/%s/%.0fdB", pc.name, sigma), Config: cfg})
		}
	}
	reps := opts.runReplicated(cells)
	for i, sigma := range sigmas {
		for j, pc := range pcs {
			rep := reps[i*len(pcs)+j]
			tab.AddRow(
				f1(sigma),
				pc.name,
				rep.cell(f3, func(r core.Result) float64 { return 1000 * r.EnergyPerPktJ }),
				rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.ChannelFails) }),
				rep.cell(pct, func(r core.Result) float64 { return r.DeliveryRate }),
				rep.cell(f1, func(r core.Result) float64 { return r.MeanDelayMs }),
			)
		}
	}
	return Report{
		ID:    "ablation-csinoise",
		Title: "Ablation A4: CSI estimation error (reciprocity-assumption robustness)",
		Table: tab,
		Notes: []string{
			repNote(opts),
			"optimistic estimation errors admit transmissions the channel cannot carry: channel failures rise with the noise spread",
			"the per-packet mode choice still tracks the true channel through the receive-tone feedback, so moderate estimation noise costs little energy — the admission threshold, not the mode table, absorbs the error",
		},
	}
}

// AblationRician sweeps the Rice factor K (DESIGN.md experiment A5):
// line-of-sight deployments fade far less than the paper's Rayleigh
// assumption, which shrinks both the cost of ignoring the channel and the
// benefit of exploiting it.
func AblationRician(opts Options) Report {
	tab := Table{Headers: []string{
		"rician-K", "protocol", "energy/pkt(mJ)", "channel-fails", "csi-deferrals",
	}}
	ks := []float64{0, 1, 4, 10}
	if opts.scale() < 0.8 {
		ks = []float64{0, 4}
	}
	pcs := []protocolCase{
		{"pure-LEACH", queueing.PolicyNone},
		{"Scheme1", queueing.PolicyAdaptive},
	}
	eppMilli := func(r core.Result) float64 { return 1000 * r.EnergyPerPktJ }
	var cells []job
	for _, k := range ks {
		for _, pc := range pcs {
			cfg := opts.baseConfig()
			cfg.Policy = pc.policy
			cfg.Channel.RicianK = k
			cfg.Horizon = opts.horizon(300 * sim.Second)
			cells = append(cells, job{Label: fmt.Sprintf("ablation-rician/%s/K%.0f", pc.name, k), Config: cfg})
		}
	}
	reps := opts.runReplicated(cells)
	var savings []float64
	for i, k := range ks {
		var perPkt [2]float64
		for j, pc := range pcs {
			rep := reps[i*len(pcs)+j]
			perPkt[j] = rep.mean(eppMilli)
			tab.AddRow(
				f1(k),
				pc.name,
				rep.cell(f3, eppMilli),
				rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.ChannelFails) }),
				rep.cell(f0, func(r core.Result) float64 { return float64(r.MAC.DeferralsCSI) }),
			)
		}
		savings = append(savings, 1-perPkt[1]/perPkt[0])
	}
	first, last := savings[0], savings[len(savings)-1]
	return Report{
		ID:    "ablation-rician",
		Title: "Ablation A5: Rice factor K (line-of-sight vs the paper's Rayleigh assumption)",
		Table: tab,
		Notes: []string{
			repNote(opts),
			fmt.Sprintf("Scheme 1's per-packet saving over pure LEACH falls from %.0f%% at K=0 (Rayleigh) to %.0f%% at K=%.0f: with a strong LOS component the channel rarely leaves its mean, so there is less variation to exploit — CAEM targets exactly the hostile, scattered deployments the paper describes", 100*first, 100*last, ks[len(ks)-1]),
		},
	}
}

// significant reports whether a paired-delta stream's 95% CI excludes
// zero — the matched-seed t-test behind SeedSweep's verdicts.
func significant(s stats.Stream) bool {
	h := s.CI95()
	return s.Count() >= 2 && !math.IsNaN(h) && math.Abs(s.Mean()) > h
}

// deltaCell renders a paired-delta aggregate as "Δmean±half", starring
// statistically significant deltas; "-" when no pairs exist.
func deltaCell(s stats.Stream, prec int) string {
	switch {
	case s.Count() == 0:
		return "-"
	case s.Count() < 2:
		return fmt.Sprintf("%+.*f", prec, s.Mean())
	}
	cell := fmt.Sprintf("%+.*f±%.*f", prec, s.Mean(), prec, s.CI95())
	if significant(s) {
		cell += " *"
	}
	return cell
}

// SeedSweep is the statistical-rigor experiment that replaces the old
// ad-hoc seed-variance study (DESIGN.md experiment A6): the headline
// load-5 metrics of every protocol across the full seed grid, as
// mean ± 95% CI, plus paired protocol deltas at matched seeds with a
// significance verdict (a paired Student-t interval excluding zero).
// Matching seeds pairs each CAEM run against the pure-LEACH run with an
// identical topology/channel/traffic realization, which removes the
// between-seed variance from the comparison — the reason protocol
// deltas can be significant even when the per-protocol CIs overlap.
func SeedSweep(opts Options) Report {
	seeds := opts.seedList()
	var cells []job
	for _, pc := range protocolCases() {
		cfg := opts.baseConfig()
		cfg.Policy = pc.policy
		cfg.Horizon = opts.horizon(4000 * sim.Second)
		cfg.StopWhenNetworkDead = true
		cfg.SampleInterval = 20 * sim.Second
		cells = append(cells, job{Label: "seedsweep/" + pc.name, Config: cfg})
	}
	reps := opts.runReplicated(cells)

	eppMilli := func(r core.Result) float64 { return 1000 * r.EnergyPerPktJ }
	delivery := func(r core.Result) float64 { return r.DeliveryRate }

	tab := Table{Headers: []string{"protocol", "seeds", "lifetime(s)", "energy/pkt(mJ)", "delivery"}}
	for i, pc := range protocolCases() {
		rep := reps[i]
		tab.AddRow(
			pc.name,
			fmt.Sprintf("%d", len(seeds)),
			partialCell(rep.lifetimeStream(), len(seeds), f1),
			ciString(rep.stream(eppMilli), f3),
			ciString(rep.stream(delivery), pct),
		)
	}

	// Paired deltas vs the pure-LEACH baseline at matched seeds.
	paired := func(variant, baseline replicates, pick func(core.Result) float64, ok func(core.Result) bool) stats.Stream {
		var s stats.Stream
		for k := range variant.runs {
			if ok(variant.runs[k]) && ok(baseline.runs[k]) {
				s.Add(pick(variant.runs[k]) - pick(baseline.runs[k]))
			}
		}
		return s
	}
	always := func(core.Result) bool { return true }
	dead := func(r core.Result) bool { return r.NetworkDead }
	lifetimeSec := func(r core.Result) float64 { return r.NetworkLifetime.Seconds() }
	// Delivery deltas are reported in percentage points so the Δ rows
	// read on the same scale as the per-protocol percentage cells above
	// them.
	deliveryPct := func(r core.Result) float64 { return 100 * r.DeliveryRate }

	notes := []string{
		fmt.Sprintf("per-protocol rows are mean ± 95%% CI over %d matched seed(s); [k/n] marks lifetimes observed in only k replicates", len(seeds)),
		"Δ rows are paired per-seed differences vs pure-LEACH (delivery Δ in percentage points); * marks deltas whose 95% CI excludes 0 (significant at matched seeds)",
	}
	for i, pc := range protocolCases()[1:] {
		variant := reps[i+1]
		dLife := paired(variant, reps[0], lifetimeSec, dead)
		dEpp := paired(variant, reps[0], eppMilli, always)
		dDel := paired(variant, reps[0], deliveryPct, always)
		// The lifetime delta only exists for seeds where BOTH runs died;
		// disclose the actual pair count when it is below the grid size,
		// so the CI's degrees of freedom are not overstated.
		lifeDelta := deltaCell(dLife, 1)
		if c := int(dLife.Count()); c > 0 && c < len(seeds) {
			lifeDelta += pairMarker(c, len(seeds))
		}
		tab.AddRow(
			"Δ "+pc.name+"−LEACH",
			fmt.Sprintf("%d", len(seeds)),
			lifeDelta,
			deltaCell(dEpp, 3),
			deltaCell(dDel, 1),
		)
		verdict := func(s stats.Stream, metric, unit string) string {
			switch {
			case s.Count() < 2:
				return fmt.Sprintf("%s vs pure-LEACH %s: too few matched pairs for a verdict", pc.name, metric)
			case significant(s):
				return fmt.Sprintf("%s vs pure-LEACH %s: Δ=%+.3f±%.3f %s — significant (95%% CI excludes 0)", pc.name, metric, s.Mean(), s.CI95(), unit)
			default:
				return fmt.Sprintf("%s vs pure-LEACH %s: Δ=%+.3f±%.3f %s — NOT significant at these seeds", pc.name, metric, s.Mean(), s.CI95(), unit)
			}
		}
		notes = append(notes, verdict(dEpp, "energy/pkt", "mJ"))
		if dLife.Count() >= 2 {
			notes = append(notes, verdict(dLife, "lifetime", "s"))
		}
	}

	return Report{
		ID:    "seedsweep",
		Title: "A6: seed-replication sweep — protocol deltas with matched-seed significance (load 5)",
		Table: tab,
		Notes: notes,
	}
}
