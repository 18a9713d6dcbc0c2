package caem

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Aggregate summarizes one metric across seed replicates: the sample
// mean with its dispersion and a 95% Student-t confidence interval.
// SD and CI95 are NaN for fewer than two replicates (a single run
// carries no dispersion information); String renders such aggregates
// as the bare mean.
type Aggregate struct {
	// N is the number of replicates aggregated.
	N int
	// Mean is the sample mean.
	Mean float64
	// SD is the unbiased sample standard deviation (NaN for N < 2).
	SD float64
	// CI95 is the half width of the two-sided 95% confidence interval
	// for the mean (NaN for N < 2); the interval is Mean ± CI95.
	CI95 float64
	// Min and Max bound the observed replicates.
	Min, Max float64
}

// AggregateOf summarizes a sample of metric values, typically one
// metric across seed replicates.
func AggregateOf(values ...float64) Aggregate {
	var s stats.Stream
	for _, v := range values {
		s.Add(v)
	}
	return newAggregate(&s, t95(len(values)))
}

// t95 is the Student-t critical value t*(0.95, n−1) behind every CI95
// (NaN for n < 2).
func t95(n int) float64 { return stats.TCritical(0.95, n-1) }

// newAggregate summarizes s given t = t95(s.Count()). CI95 is t·s/√n,
// Stream.CI95's own expression, so it is bit-identical to s.CI95();
// taking t as an argument lets equal-N streams share one critical value,
// which costs far more than the rest of the summary.
func newAggregate(s *stats.Stream, t float64) Aggregate {
	return Aggregate{
		N:    int(s.Count()),
		Mean: s.Mean(),
		SD:   s.SampleStdDev(),
		CI95: t * s.StdErr(),
		Min:  s.Min(),
		Max:  s.Max(),
	}
}

// String renders "mean±ci95" (or the bare mean when no interval is
// defined) with three decimals; use Format for other precisions.
func (a Aggregate) String() string { return a.Format(3) }

// Format renders "mean±ci95" at the given decimal precision, falling
// back to the bare mean when the interval is undefined (N < 2).
func (a Aggregate) Format(prec int) string {
	if a.N < 2 || math.IsNaN(a.CI95) {
		return fmt.Sprintf("%.*f", prec, a.Mean)
	}
	return fmt.Sprintf("%.*f±%.*f", prec, a.Mean, prec, a.CI95)
}

// MarshalJSON encodes the aggregate with undefined statistics (the NaN
// SD/CI95 of a single-replicate sample) as JSON null instead of failing
// the whole document, so campaign reports serialize at any replication
// level. Decoding null back yields NaN via UnmarshalJSON.
func (a Aggregate) MarshalJSON() ([]byte, error) {
	return json.Marshal(aggregateJSON{
		N:    a.N,
		Mean: a.Mean,
		SD:   nanToNil(a.SD),
		CI95: nanToNil(a.CI95),
		Min:  a.Min,
		Max:  a.Max,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON: null dispersion fields
// decode to NaN, matching AggregateOf's NaN policy.
func (a *Aggregate) UnmarshalJSON(data []byte) error {
	var v aggregateJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*a = Aggregate{N: v.N, Mean: v.Mean, SD: nilToNaN(v.SD), CI95: nilToNaN(v.CI95), Min: v.Min, Max: v.Max}
	return nil
}

// aggregateJSON is the wire form of Aggregate: dispersion fields are
// nullable because they are NaN below two replicates.
type aggregateJSON struct {
	N    int      `json:"n"`
	Mean float64  `json:"mean"`
	SD   *float64 `json:"sd"`
	CI95 *float64 `json:"ci95"`
	Min  float64  `json:"min"`
	Max  float64  `json:"max"`
}

func nanToNil(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func nilToNaN(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}

// Scaled returns the aggregate with every statistic multiplied by f —
// unit conversions for display (fractions to percent, J to mJ).
func (a Aggregate) Scaled(f float64) Aggregate {
	a.Mean *= f
	a.SD *= f
	a.CI95 *= f
	a.Min *= f
	a.Max *= f
	return a
}

// CampaignAggregate is the statistical summary of one campaign
// (scenario, protocol) cell group across its seed replicates.
type CampaignAggregate struct {
	Scenario string
	Protocol Protocol
	// Seeds is the number of replicates behind every Aggregate.
	Seeds int

	ConsumedJ             Aggregate
	DeliveryRate          Aggregate
	MeanDelayMs           Aggregate
	P95DelayMs            Aggregate
	EnergyPerPacketMilliJ Aggregate
	AliveAtEnd            Aggregate
}

// AggregateCampaign collapses RunCampaign's per-seed cells into one
// statistical summary per (scenario, protocol) group, in first-
// appearance order — the submission order of the campaign grid. This
// is the report campaigns should publish: mean ± 95% CI per cell group
// rather than raw per-seed rows.
func AggregateCampaign(cells []CampaignCell) []CampaignAggregate {
	type key struct {
		scenario string
		protocol Protocol
	}
	type acc struct {
		consumed, delivery, delay, p95, epp, alive stats.Stream
	}
	order := make([]key, 0, 8)
	groups := make(map[key]*acc, 8)
	for _, c := range cells {
		k := key{c.Scenario, c.Protocol}
		g, ok := groups[k]
		if !ok {
			g = &acc{}
			groups[k] = g
			order = append(order, k)
		}
		g.consumed.Add(c.Result.TotalConsumedJ)
		g.delivery.Add(c.Result.DeliveryRate)
		g.delay.Add(c.Result.MeanDelayMs)
		g.p95.Add(c.Result.P95DelayMs)
		g.epp.Add(c.Result.EnergyPerPacketMilliJ)
		g.alive.Add(float64(c.Result.AliveAtEnd))
	}
	out := make([]CampaignAggregate, 0, len(order))
	for _, k := range order {
		g := groups[k]
		n := int(g.consumed.Count())
		t := t95(n) // every metric of a group has the same N
		out = append(out, CampaignAggregate{
			Scenario:              k.scenario,
			Protocol:              k.protocol,
			Seeds:                 n,
			ConsumedJ:             newAggregate(&g.consumed, t),
			DeliveryRate:          newAggregate(&g.delivery, t),
			MeanDelayMs:           newAggregate(&g.delay, t),
			P95DelayMs:            newAggregate(&g.p95, t),
			EnergyPerPacketMilliJ: newAggregate(&g.epp, t),
			AliveAtEnd:            newAggregate(&g.alive, t),
		})
	}
	return out
}
