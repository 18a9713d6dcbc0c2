// Package repro's root benchmarks regenerate each table and figure of the
// paper at a reduced scale, one testing.B benchmark per artifact
// (DESIGN.md §3). Full-scale reproduction is cmd/caem-bench; these keep
// `go test -bench=.` under a minute while exercising the same code paths.
package repro

import (
	"fmt"
	"testing"

	"repro/caem"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/scenario"
	"repro/internal/scenario/gen"
	"repro/internal/sim"
)

// benchOpts runs experiments small: 20 nodes, ~1/5 horizons, thin
// sweeps, at the default 5-seed replication grid (so the figure
// benchmarks price in the statistics engine's aggregation).
func benchOpts() experiment.Options {
	return experiment.Options{Seed: 1, Scale: 0.2}
}

func benchReport(b *testing.B, run func(experiment.Options) experiment.Report) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := run(benchOpts())
		if len(r.Table.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTableI_ToneChannel regenerates paper Table I (tone pulse
// intervals per channel state).
func BenchmarkTableI_ToneChannel(b *testing.B) { benchReport(b, experiment.TableI) }

// BenchmarkTableII_Parameters regenerates paper Table II (simulation
// parameters).
func BenchmarkTableII_Parameters(b *testing.B) { benchReport(b, experiment.TableII) }

// BenchmarkFigure8_RemainingEnergy regenerates paper Fig. 8 (average
// remaining energy vs time, three protocols).
func BenchmarkFigure8_RemainingEnergy(b *testing.B) { benchReport(b, experiment.Figure8) }

// BenchmarkFigure9_NodesAlive regenerates paper Fig. 9 (alive nodes vs
// time and the lifetime gains).
func BenchmarkFigure9_NodesAlive(b *testing.B) { benchReport(b, experiment.Figure9) }

// BenchmarkFigure10_LifetimeVsLoad regenerates paper Fig. 10 (network
// lifetime vs traffic load).
func BenchmarkFigure10_LifetimeVsLoad(b *testing.B) { benchReport(b, experiment.Figure10) }

// BenchmarkFigure11_EnergyPerPacket regenerates paper Fig. 11 (average
// energy per delivered packet vs load).
func BenchmarkFigure11_EnergyPerPacket(b *testing.B) { benchReport(b, experiment.Figure11) }

// BenchmarkFigure12_QueueFairness regenerates paper Fig. 12 (queue-length
// standard deviation vs load).
func BenchmarkFigure12_QueueFairness(b *testing.B) { benchReport(b, experiment.Figure12) }

// BenchmarkNetworkPerformance regenerates the §IV.A long-version metrics
// (delay, throughput, delivery rate).
func BenchmarkNetworkPerformance(b *testing.B) { benchReport(b, experiment.NetworkPerformance) }

// BenchmarkAblationThreshold runs the A1 ablation (Q_th, m sweep).
func BenchmarkAblationThreshold(b *testing.B) { benchReport(b, experiment.AblationThresholdParams) }

// BenchmarkAblationDoppler runs the A2 ablation (channel dynamics sweep).
func BenchmarkAblationDoppler(b *testing.B) { benchReport(b, experiment.AblationDoppler) }

// BenchmarkAblationBurst runs the A3 ablation (burst-size rules sweep).
func BenchmarkAblationBurst(b *testing.B) { benchReport(b, experiment.AblationBurst) }

// BenchmarkAblationCSINoise runs the A4 ablation (CSI estimation error).
func BenchmarkAblationCSINoise(b *testing.B) { benchReport(b, experiment.AblationCSINoise) }

// BenchmarkAblationRician runs the A5 ablation (Rice factor sweep).
func BenchmarkAblationRician(b *testing.B) { benchReport(b, experiment.AblationRician) }

// BenchmarkSeedSweep runs the A6 seed-replication sweep (matched-seed
// significance study).
func BenchmarkSeedSweep(b *testing.B) { benchReport(b, experiment.SeedSweep) }

// BenchmarkScenarioSecond measures one simulated second at full scale
// under a busy dynamic-world timeline — a churn/burst/weather/service
// cycle every simulated minute — so the scenario engine's overhead can be
// compared directly against BenchmarkSimulatedSecond's static world.
func BenchmarkScenarioSecond(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Horizon = sim.Time(b.N) * sim.Second
	cfg.SampleInterval = 1000 * sim.Second

	spec := scenario.Spec{
		Name: "bench-dynamic",
		Nodes: []scenario.NodeRule{
			{Nodes: scenario.Selector{From: 0, To: 10}, RateScale: 3},
		},
	}
	for t := 10.0; t < float64(b.N); t += 60 {
		spec.Timeline = append(spec.Timeline,
			scenario.Event{AtSeconds: t, Type: scenario.EventKill,
				Nodes: scenario.Selector{From: 20, To: 25}},
			scenario.Event{AtSeconds: t + 15, Type: scenario.EventBurst,
				Scale: 2, DurationSeconds: 10},
			scenario.Event{AtSeconds: t + 30, Type: scenario.EventChannel,
				Channel: &scenario.ChannelShift{DopplerHz: benchFloat(8)}},
			scenario.Event{AtSeconds: t + 40, Type: scenario.EventChannel,
				Channel: &scenario.ChannelShift{DopplerHz: benchFloat(2)}},
			scenario.Event{AtSeconds: t + 45, Type: scenario.EventRevive,
				Nodes: scenario.Selector{From: 20, To: 25}},
			scenario.Event{AtSeconds: t + 50, Type: scenario.EventTopUp,
				EnergyJ: 0.05, Nodes: scenario.Selector{From: 20, To: 25}},
		)
	}
	if err := scenario.Compile(spec, &cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	core.New(cfg).Run()
}

func benchFloat(v float64) *float64 { return &v }

// BenchmarkGeneratedScenarioSecond measures one simulated second at
// full scale under a DENSE generated timeline — the gen package's
// "dense"-style mix (churn, bursty load, stormy weather, mobility,
// interference, sink outages) at 4x event density — so the overhead of
// the scenario engine's event hooks, link-row invalidation, and
// interference bookkeeping is regression-gated on a timeline far
// busier than BenchmarkScenarioSecond's hand-rolled cycle.
func BenchmarkGeneratedScenarioSecond(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Horizon = sim.Time(b.N) * sim.Second
	cfg.SampleInterval = 1000 * sim.Second
	cfg.BaseStationForwarding = true

	d := float64(b.N)
	if d < 60 {
		d = 60 // the generator's minimum horizon
	}
	fam := gen.Family{
		Name:  "bench-dense",
		Nodes: cfg.Nodes, FieldWidthM: cfg.FieldWidth, FieldHeightM: cfg.FieldHeight,
		DurationSeconds: d,
		ChurnRate:       3, LoadShape: "bursty", Weather: "stormy",
		Heterogeneity: 0.4, EventDensity: 4,
		MobilityRate: 3, InterferenceRate: 2, SinkOutages: 2,
	}
	spec, err := gen.Generate(fam, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := scenario.Compile(spec, &cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	core.New(cfg).Run()
}

// BenchmarkMetricsHotPath measures one round of the instrument updates
// the cluster and store emit per settled cell — counter Inc/Add, gauge
// Set, histogram Observe, and a pre-bound labeled counter — and proves
// the whole update path allocates nothing. Together with the
// exact-allocs entries in the committed bench baseline this is the
// gate that observability stays off the simulation hot loop: an
// allocation introduced anywhere in the instrument write path fails
// benchgate at 0 allocs/op, and any collateral damage to the engine
// itself fails BenchmarkSimulatedSecond at exactly 4.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	settled := reg.Counter("caem_cells_settled_total", "Cells settled.")
	simSecs := reg.Counter("caem_worker_simulated_seconds_total", "Simulated seconds completed.")
	queue := reg.Gauge("caem_coordinator_queue_depth", "Ready-queue depth.")
	batch := reg.Histogram("caem_lease_batch_cells", "Cells per lease.", obs.SizeBuckets)
	rtt := reg.Histogram("caem_worker_heartbeat_rtt_seconds", "Heartbeat RTT.", obs.LatencyBuckets)
	perWorker := reg.CounterVec("caem_worker_cells_completed_total",
		"Cells executed per worker.", "worker").With("bench-worker")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		settled.Inc()
		simSecs.Add(60)
		queue.Set(float64(i & 1023))
		batch.Observe(float64(i&31) + 1)
		rtt.Observe(float64(i&15) * 0.001)
		perWorker.Inc()
	}
}

// benchRef addresses one stored cell of the benchmark grid.
type benchRef struct {
	hash     string
	scenario string
	protocol caem.Protocol
	seed     uint64
}

// benchCampaignStore builds a store holding a settled synthetic campaign
// grid — 4 scenarios x 3 protocols x 32 seeds = 384 cells — and returns
// it with the refs that address every cell. Metric values are a fixed
// function of the grid position so runs are deterministic.
func benchCampaignStore(b *testing.B) (*caem.CampaignStore, []benchRef) {
	b.Helper()
	cs, err := caem.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cs.Close() })
	scenarios := []string{"static", "node-churn", "interference", "mobility"}
	refs := make([]benchRef, 0, len(scenarios)*3*32)
	for si, sc := range scenarios {
		hash := fmt.Sprintf("%016x", si+1)
		for _, p := range caem.Protocols() {
			for seed := uint64(1); seed <= 32; seed++ {
				v := float64((seed*7 + uint64(si)*13 + uint64(p)*29) % 97)
				cell := caem.CampaignCell{
					Scenario: sc, Protocol: p, Seed: seed,
					Result: caem.Result{
						Protocol:     p,
						MeanDelayMs:  v,
						DeliveryRate: 1 - v/200,
					},
				}
				if err := cs.PutCell("bench", hash, cell); err != nil {
					b.Fatal(err)
				}
				refs = append(refs, benchRef{hash, sc, p, seed})
			}
		}
	}
	return cs, refs
}

// BenchmarkQueryTopK measures one top-10 metric query over a 384-cell
// campaign grid read back from the store: one bloom/range-indexed point
// read per grid cell (LookupCell), then the metric filter and the
// ordered cut (FilterCells).
func BenchmarkQueryTopK(b *testing.B) {
	cs, refs := benchCampaignStore(b)
	q := caem.CellQuery{Metric: "meanDelayMs", Top: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := make([]caem.CampaignCell, 0, len(refs))
		for _, ref := range refs {
			cell, ok, err := cs.LookupCell(ref.hash, ref.scenario, ref.protocol, ref.seed)
			if err != nil || !ok {
				b.Fatalf("LookupCell(%+v) = ok=%v err=%v", ref, ok, err)
			}
			all = append(all, cell)
		}
		cells, err := caem.FilterCells(all, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 10 {
			b.Fatalf("top-10 returned %d cells", len(cells))
		}
	}
}

// BenchmarkSimulatedSecond measures the raw cost of one simulated second
// at the paper's full scale (100 nodes, load 5), per protocol — the
// hot-path benchmark for the event engine, channel sampling, and MAC.
func BenchmarkSimulatedSecond(b *testing.B) {
	for _, pc := range []struct {
		name   string
		policy queueing.ThresholdPolicy
	}{
		{"PureLEACH", queueing.PolicyNone},
		{"Scheme1", queueing.PolicyAdaptive},
		{"Scheme2", queueing.PolicyFixedHighest},
	} {
		b.Run(pc.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Policy = pc.policy
			cfg.Horizon = sim.Time(b.N) * sim.Second
			cfg.SampleInterval = 1000 * sim.Second
			b.ReportAllocs()
			b.ResetTimer()
			core.New(cfg).Run()
		})
	}
}
