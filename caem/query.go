package caem

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricGetters maps the queryable metric names — the JSON field names
// of the stored per-cell summary — to their Result projections. This is
// the single registry behind MetricNames, MetricOf, query filtering,
// top-k ordering, and percentile surfaces.
var metricGetters = map[string]func(Result) float64{
	"durationSeconds":        func(r Result) float64 { return r.DurationSeconds },
	"rounds":                 func(r Result) float64 { return float64(r.Rounds) },
	"totalConsumedJ":         func(r Result) float64 { return r.TotalConsumedJ },
	"avgRemainingJ":          func(r Result) float64 { return r.AvgRemainingJ },
	"aliveAtEnd":             func(r Result) float64 { return float64(r.AliveAtEnd) },
	"firstDeathSeconds":      func(r Result) float64 { return r.FirstDeathSeconds },
	"networkLifetimeSeconds": func(r Result) float64 { return r.NetworkLifetimeSeconds },
	"energyPerPacketMilliJ":  func(r Result) float64 { return r.EnergyPerPacketMilliJ },
	"generated":              func(r Result) float64 { return float64(r.Generated) },
	"delivered":              func(r Result) float64 { return float64(r.Delivered) },
	"droppedBuffer":          func(r Result) float64 { return float64(r.DroppedBuffer) },
	"droppedRetry":           func(r Result) float64 { return float64(r.DroppedRetry) },
	"deliveryRate":           func(r Result) float64 { return r.DeliveryRate },
	"throughputKbps":         func(r Result) float64 { return r.ThroughputKbps },
	"meanDelayMs":            func(r Result) float64 { return r.MeanDelayMs },
	"p95DelayMs":             func(r Result) float64 { return r.P95DelayMs },
	"maxDelayMs":             func(r Result) float64 { return r.MaxDelayMs },
	"queueStdDev":            func(r Result) float64 { return r.QueueStdDev },
	"collisions":             func(r Result) float64 { return float64(r.Collisions) },
	"channelFails":           func(r Result) float64 { return float64(r.ChannelFails) },
}

// MetricNames returns the queryable metric names, sorted — the JSON
// field names of the stored per-cell summary.
func MetricNames() []string {
	names := make([]string, 0, len(metricGetters))
	for name := range metricGetters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MetricOf extracts a named summary metric from a result. The second
// return is false for unknown names.
func MetricOf(r Result, name string) (float64, bool) {
	g, ok := metricGetters[name]
	if !ok {
		return 0, false
	}
	return g(r), true
}

// CellQuery filters and orders a cell set. The zero value selects
// everything in input order.
type CellQuery struct {
	// Scenario/Protocol select exact matches; empty selects all.
	// Protocol accepts any spelling ParseProtocol does ("leach",
	// "pure-LEACH", "s1", ...).
	Scenario string
	Protocol string
	// Metric names the summary metric (see MetricNames) that Min, Max,
	// and Top operate on. Required when any of those is set.
	Metric string
	// Min/Max, when non-nil, keep only cells whose Metric value is
	// >= *Min / <= *Max.
	Min *float64
	Max *float64
	// Top, when positive, keeps only the k cells with the largest
	// Metric values (stable: ties keep input order). Zero keeps all, in
	// input order.
	Top int
}

// validate reports the first structural problem with the query.
func (q CellQuery) validate() error {
	if q.Protocol != "" {
		if _, err := ParseProtocol(q.Protocol); err != nil {
			return err
		}
	}
	if q.Metric == "" {
		if q.Min != nil || q.Max != nil || q.Top > 0 {
			return fmt.Errorf("caem: query needs a metric for min/max/top")
		}
		return nil
	}
	if _, ok := metricGetters[q.Metric]; !ok {
		return fmt.Errorf("caem: unknown metric %q (see MetricNames)", q.Metric)
	}
	if q.Top < 0 {
		return fmt.Errorf("caem: negative top %d", q.Top)
	}
	if q.Min != nil && q.Max != nil && *q.Min > *q.Max {
		return fmt.Errorf("caem: empty metric range [%g, %g]", *q.Min, *q.Max)
	}
	return nil
}

// protocol resolves the query's protocol filter; the second return is
// false when no filter is set. Callers run after validate, so the
// parse cannot fail here.
func (q CellQuery) protocol() (Protocol, bool) {
	if q.Protocol == "" {
		return 0, false
	}
	p, _ := ParseProtocol(q.Protocol)
	return p, true
}

// FilterCells applies the query to an in-memory cell set: exact
// scenario/protocol match, metric range, then top-k. Callers holding a
// materialized cell set (for example the campaign service's results
// view) filter it without touching the store at all.
func FilterCells(cells []CampaignCell, q CellQuery) ([]CampaignCell, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	proto, haveProto := q.protocol()
	metric := metricGetters[q.Metric] // nil without a metric; validate requires one for min/max/top
	var vals []float64                // each kept cell's metric value, read once
	if metric != nil {
		vals = make([]float64, len(cells))
	}
	keep := make([]int, 0, len(cells)) // positions of the cells that pass
	for i := range cells {
		cell := &cells[i]
		if q.Scenario != "" && cell.Scenario != q.Scenario {
			continue
		}
		if haveProto && cell.Protocol != proto {
			continue
		}
		if metric != nil {
			v := metric(cell.Result)
			if q.Min != nil && !(v >= *q.Min) {
				continue
			}
			if q.Max != nil && !(v <= *q.Max) {
				continue
			}
			vals[i] = v
		}
		keep = append(keep, i)
	}
	if q.Top > 0 {
		// Largest first and NaN last, so defined values win the top-k
		// slots. Ties fall back to position, which keeps them in input
		// order: the order is total, so the sort is stable.
		before := func(x, y float64) bool { return !math.IsNaN(x) && (math.IsNaN(y) || x > y) }
		slices.SortFunc(keep, func(a, b int) int {
			switch {
			case before(vals[a], vals[b]):
				return -1
			case before(vals[b], vals[a]):
				return 1
			}
			return a - b
		})
		keep = keep[:min(q.Top, len(keep))]
	}
	out := make([]CampaignCell, len(keep))
	for i, p := range keep {
		out[i] = cells[p]
	}
	return out, nil
}

// PercentilePoint is one point of a percentile surface: the requested
// percentile and the metric value at it.
type PercentilePoint struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

// MetricSurface is the percentile surface of one metric over one
// (scenario, protocol) cell group: exact order statistics over the
// group's replicates, linearly interpolated between ranks.
type MetricSurface struct {
	Scenario    string            `json:"scenario"`
	Protocol    string            `json:"protocol"`
	Metric      string            `json:"metric"`
	N           int               `json:"n"`
	Percentiles []PercentilePoint `json:"percentiles"`
}

// PercentileSurface computes exact percentile surfaces of a metric per
// (scenario, protocol) group, in the cells' first-appearance order —
// the same group order AggregateCampaign reports. Percentiles are in
// [0, 100]; values between ranks interpolate linearly (the usual
// "linear" definition, exact because every replicate is held).
func PercentileSurface(cells []CampaignCell, metric string, ps []float64) ([]MetricSurface, error) {
	if _, ok := metricGetters[metric]; !ok {
		return nil, fmt.Errorf("caem: unknown metric %q (see MetricNames)", metric)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("caem: percentile surface needs at least one percentile")
	}
	for _, p := range ps {
		if p < 0 || p > 100 || math.IsNaN(p) {
			return nil, fmt.Errorf("caem: percentile %g outside [0, 100]", p)
		}
	}
	type key struct {
		scenario string
		protocol Protocol
	}
	order := make([]key, 0, 8)
	groups := make(map[key][]float64, 8)
	for _, c := range cells {
		k := key{c.Scenario, c.Protocol}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		v, _ := MetricOf(c.Result, metric)
		groups[k] = append(groups[k], v)
	}
	out := make([]MetricSurface, 0, len(order))
	for _, k := range order {
		vs := groups[k]
		sort.Float64s(vs)
		points := make([]PercentilePoint, 0, len(ps))
		for _, p := range ps {
			points = append(points, PercentilePoint{P: p, Value: percentileOf(vs, p)})
		}
		out = append(out, MetricSurface{
			Scenario:    k.scenario,
			Protocol:    k.protocol.String(),
			Metric:      metric,
			N:           len(vs),
			Percentiles: points,
		})
	}
	return out, nil
}

// percentileOf returns the p-th percentile of sorted values with linear
// interpolation between closest ranks.
func percentileOf(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
