package experiment

// Replication support. Every experiment grid cell (a labelled
// configuration) runs across the options' seed list; the full
// cell × seed grid goes through the worker pool in one submission-
// ordered batch, so serial and parallel executions aggregate
// bit-identically. Tables collapse each cell's replicates into
// "mean±half" 95% confidence-interval strings via internal/stats.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/stats"
)

// replicates holds one grid cell's runs, in seed-list order.
type replicates struct {
	runs []core.Result
}

// runReplicated expands every cell across the options' seed list and
// executes the whole grid through the worker pool, cell-major then
// seed. The returned slice is parallel to cells.
func (o Options) runReplicated(cells []job) []replicates {
	seeds := o.seedList()
	jobs := make([]job, 0, len(cells)*len(seeds))
	for _, c := range cells {
		for _, s := range seeds {
			cfg := c.Config
			cfg.Seed = s
			jobs = append(jobs, job{Label: fmt.Sprintf("%s/seed%d", c.Label, s), Config: cfg})
		}
	}
	results := o.run(jobs)
	out := make([]replicates, len(cells))
	for i := range cells {
		out[i] = replicates{runs: results[i*len(seeds) : (i+1)*len(seeds)]}
	}
	return out
}

// stream aggregates one scalar metric over the cell's replicates.
func (r replicates) stream(pick func(core.Result) float64) stats.Stream {
	var s stats.Stream
	for i := range r.runs {
		s.Add(pick(r.runs[i]))
	}
	return s
}

// cell renders one scalar metric as a "mean±half" table cell.
func (r replicates) cell(format func(float64) string, pick func(core.Result) float64) string {
	s := r.stream(pick)
	return ciString(s, format)
}

// mean returns one scalar metric's replicate mean.
func (r replicates) mean(pick func(core.Result) float64) float64 {
	s := r.stream(pick)
	return s.Mean()
}

// lifetimeStream aggregates network lifetime over the replicates that
// reached network death; its Count tells how many did.
func (r replicates) lifetimeStream() stats.Stream {
	var s stats.Stream
	for _, res := range r.runs {
		if res.NetworkDead {
			s.Add(res.NetworkLifetime.Seconds())
		}
	}
	return s
}

// repNote is the standard report note describing what a table cell
// is. With a single replicate there is no interval — cells are bare
// point estimates — and the note must say so rather than claim a CI.
func repNote(o Options) string {
	n := len(o.seedList())
	if n < 2 {
		return "cells are single-seed point estimates (1 replicate; no confidence interval)"
	}
	return fmt.Sprintf("cells are mean ± 95%% CI over %d seed replicates", n)
}

// ciString renders a replicate aggregate as "mean±half" (95% CI). A
// single replicate has no interval — the NaN policy of internal/stats
// — and renders as the bare mean, so Replications=1 reproduces the old
// single-seed tables' shape.
func ciString(s stats.Stream, format func(float64) string) string {
	if s.Count() < 2 {
		return format(s.Mean())
	}
	return format(s.Mean()) + "±" + format(s.CI95())
}

// pairMarker is the " [k/n]" disclosure suffix for cells that only k
// of n replicates (or matched pairs) defined.
func pairMarker(k, n int) string { return fmt.Sprintf(" [%d/%d]", k, n) }

// partialCell renders a replicate aggregate that only some of the n
// replicates defined (e.g. a lifetime when not every seed reached
// network death): the usual "mean±half" plus the pairMarker disclosure
// whenever k < n. "-" when no replicate defined it.
func partialCell(s stats.Stream, n int, format func(float64) string) string {
	if s.Count() == 0 {
		return "-"
	}
	cell := ciString(s, format)
	if k := int(s.Count()); k < n {
		cell += pairMarker(k, n)
	}
	return cell
}

// seriesStream aggregates a per-run time series value at time t across
// replicates; ok is false when any replicate has no sample at t yet.
func seriesStream(runs []core.Result, pick func(core.Result) *metrics.TimeSeries, t sim.Time) (stats.Stream, bool) {
	var s stats.Stream
	for i := range runs {
		v, ok := pick(runs[i]).At(t)
		if !ok {
			return stats.Stream{}, false
		}
		s.Add(v)
	}
	return s, true
}

// seriesCell renders the across-replicate value of a time series at t.
func seriesCell(runs []core.Result, pick func(core.Result) *metrics.TimeSeries, t sim.Time, format func(float64) string) string {
	s, ok := seriesStream(runs, pick, t)
	if !ok {
		return "-"
	}
	return ciString(s, format)
}

// meanSeries samples the across-replicate mean of a per-run time
// series on a uniform grid, for charting.
func meanSeries(name string, runs []core.Result, pick func(core.Result) *metrics.TimeSeries, horizon sim.Time, points int) plot.Series {
	out := plot.Series{Name: name}
	for i := 0; i < points; i++ {
		t := sim.Time(int64(horizon) * int64(i) / int64(points-1))
		s, ok := seriesStream(runs, pick, t)
		if !ok {
			continue
		}
		out.X = append(out.X, t.Seconds())
		out.Y = append(out.Y, s.Mean())
	}
	return out
}

func energySeries(r core.Result) *metrics.TimeSeries { return r.EnergySeries }
func aliveSeries(r core.Result) *metrics.TimeSeries  { return r.AliveSeries }
