package caem

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// aggCell fabricates a summary-level cell with metric values that make
// floating-point accumulation order observable: adding them to a
// Welford stream in different orders drifts the final ulps.
func aggCell(scenario string, p Protocol, seed uint64) CampaignCell {
	f := float64(seed)
	return CampaignCell{
		Scenario: scenario,
		Protocol: p,
		Seed:     seed,
		Result: Result{
			Protocol:              p,
			TotalConsumedJ:        1e8 + f*math.Pi,
			DeliveryRate:          1 / (f + 3),
			MeanDelayMs:           math.Sqrt(f + 2),
			P95DelayMs:            math.Cbrt(f + 7),
			EnergyPerPacketMilliJ: math.Log(f + 2),
			AliveAtEnd:            int(90 + seed),
		},
	}
}

func TestAggregateOf(t *testing.T) {
	a := AggregateOf(2, 4, 4, 4, 5, 5, 7, 9)
	if a.N != 8 || math.Abs(a.Mean-5) > 1e-12 {
		t.Fatalf("n/mean = %d/%v", a.N, a.Mean)
	}
	if a.Min != 2 || a.Max != 9 {
		t.Fatalf("min/max = %v/%v", a.Min, a.Max)
	}
	if math.IsNaN(a.CI95) || a.CI95 <= 0 {
		t.Fatalf("CI95 = %v", a.CI95)
	}
	if !strings.Contains(a.String(), "±") {
		t.Fatalf("String() = %q, want mean±ci", a.String())
	}

	// AggregateOf and AggregateCampaign compute the t critical value
	// once and pass it in; every CI95 must stay bit-identical to the
	// stream's own CI95, the NaN below two replicates included.
	metrics := []func(CampaignAggregate) Aggregate{
		func(a CampaignAggregate) Aggregate { return a.ConsumedJ },
		func(a CampaignAggregate) Aggregate { return a.DeliveryRate },
		func(a CampaignAggregate) Aggregate { return a.MeanDelayMs },
		func(a CampaignAggregate) Aggregate { return a.P95DelayMs },
		func(a CampaignAggregate) Aggregate { return a.EnergyPerPacketMilliJ },
		func(a CampaignAggregate) Aggregate { return a.AliveAtEnd },
	}
	for _, n := range []int{0, 1, 2, 5} {
		var cells []CampaignCell
		streams := make([]stats.Stream, len(metrics))
		for seed := uint64(1); seed <= uint64(n); seed++ {
			c := aggCell("alpha", Scheme1, seed)
			cells = append(cells, c)
			r := c.Result
			for i, v := range []float64{r.TotalConsumedJ, r.DeliveryRate, r.MeanDelayMs,
				r.P95DelayMs, r.EnergyPerPacketMilliJ, float64(r.AliveAtEnd)} {
				streams[i].Add(v)
			}
		}
		values := make([]float64, 0, n)
		for _, c := range cells {
			values = append(values, c.Result.MeanDelayMs)
		}
		if got, want := AggregateOf(values...).CI95, streams[2].CI95(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("N=%d: AggregateOf CI95 = %v (%#x), stream CI95 = %v (%#x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		aggs := AggregateCampaign(cells)
		if n == 0 {
			if len(aggs) != 0 {
				t.Fatalf("N=0: %d aggregates from no cells", len(aggs))
			}
			continue
		}
		for i, m := range metrics {
			got, want := m(aggs[0]).CI95, streams[i].CI95()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("N=%d metric %d: AggregateCampaign CI95 = %v (%#x), stream CI95 = %v (%#x)",
					n, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestAggregateSingleValue(t *testing.T) {
	a := AggregateOf(3.5)
	if !math.IsNaN(a.CI95) || !math.IsNaN(a.SD) {
		t.Fatalf("single-value CI/SD = %v/%v, want NaN", a.CI95, a.SD)
	}
	if got := a.Format(2); got != "3.50" {
		t.Fatalf("single-value Format = %q, want bare mean", got)
	}
}

func TestAggregateScaled(t *testing.T) {
	a := AggregateOf(0.5, 0.7).Scaled(100)
	if math.Abs(a.Mean-60) > 1e-9 || math.Abs(a.Min-50) > 1e-9 || math.Abs(a.Max-70) > 1e-9 {
		t.Fatalf("scaled aggregate = %+v", a)
	}
}

// AggregateCampaign must group by (scenario, protocol) in first-
// appearance order and summarize across seeds.
func TestAggregateCampaign(t *testing.T) {
	lib, err := LibraryScenarios()
	if err != nil {
		t.Fatal(err)
	}
	sc := lib[0]
	cfg, err := ScenarioConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DurationSeconds = 30
	cfg.Workers = 1
	cells, err := RunCampaign(cfg, []Scenario{sc}, []Protocol{PureLEACH, Scheme1}, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	aggs := AggregateCampaign(cells)
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d, want one per (scenario, protocol)", len(aggs))
	}
	if aggs[0].Protocol != PureLEACH || aggs[1].Protocol != Scheme1 {
		t.Fatalf("aggregate order = %v, %v", aggs[0].Protocol, aggs[1].Protocol)
	}
	for _, a := range aggs {
		if a.Scenario != sc.Name {
			t.Errorf("scenario = %q", a.Scenario)
		}
		if a.Seeds != 3 || a.ConsumedJ.N != 3 {
			t.Errorf("seeds = %d / %d, want 3", a.Seeds, a.ConsumedJ.N)
		}
		if a.ConsumedJ.Mean <= 0 {
			t.Errorf("consumed mean = %v", a.ConsumedJ.Mean)
		}
		if math.IsNaN(a.ConsumedJ.CI95) {
			t.Errorf("consumed CI is NaN with 3 seeds")
		}
		if a.ConsumedJ.Min > a.ConsumedJ.Mean || a.ConsumedJ.Max < a.ConsumedJ.Mean {
			t.Errorf("min/mean/max inconsistent: %+v", a.ConsumedJ)
		}
	}
}
