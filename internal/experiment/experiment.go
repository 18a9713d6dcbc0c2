// Package experiment regenerates every table and figure of the paper's
// evaluation (§IV), plus the extension metrics the paper defers to its
// long version and the ablations listed in DESIGN.md §3.
//
// Each experiment is a pure function from Options to a Report holding a
// formatted table, CSV payload, and headline notes. cmd/caem-bench runs
// them at full scale and writes the results; bench_test.go runs them at
// reduced Scale so `go test -bench` stays fast.
package experiment

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/queueing"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Options controls experiment scale, reproducibility, replication, and
// parallelism.
type Options struct {
	// Seed roots all runs: replicate k of every grid cell runs at seed
	// Seed+k unless Seeds pins an explicit list.
	Seed uint64
	// Scale in (0, 1] shrinks the experiment: node count, horizon, and
	// sweep sizes. 1.0 reproduces the paper's setup.
	Scale float64
	// Replications is the number of seed replicates behind every
	// reported cell: each grid configuration runs at Replications
	// consecutive seeds and tables carry mean ± 95% CI entries. 0 means
	// the default of 5; 1 disables aggregation (bare single-seed means,
	// the pre-replication table shape).
	Replications int
	// Seeds, when non-empty, pins the exact replication seed list and
	// overrides Replications.
	Seeds []uint64
	// Workers is the number of simulations run concurrently: 0 means one
	// per CPU, 1 runs serially on the calling goroutine. Every run owns
	// its own random streams and the replicated grid is aggregated in
	// submission order, so the reports are bit-identical for any value.
	Workers int
	// Progress, when non-nil, receives one line per completed run.
	Progress func(format string, args ...any)
}

// defaultReplications is the seed-grid size behind every table cell
// when Options.Replications is unset.
const defaultReplications = 5

// seedList resolves the replication seeds: the pinned Seeds list, or
// Replications (default 5) consecutive seeds from Seed.
func (o Options) seedList() []uint64 {
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	n := o.Replications
	if n <= 0 {
		n = defaultReplications
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = o.Seed + uint64(i)
	}
	return seeds
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1.0
	}
	return o.Scale
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// job is one labelled simulation of an experiment grid.
type job struct {
	// Label identifies the run in progress lines ("figure9/Scheme1").
	Label string
	// Config fully specifies the run.
	Config core.Config
}

// run submits a batch of labelled configurations to the worker pool and
// returns the results in submission order. All experiment sweeps funnel
// through here: the grid cells are fully independent simulations, so they
// fan out across Options.Workers goroutines with bit-identical output.
// Progress lines arrive in completion order, one per run.
func (o Options) run(jobs []job) []core.Result {
	if len(jobs) > 1 {
		o.logf("running %d simulations (workers=%d; 0 means NumCPU)...", len(jobs), o.Workers)
	}
	results := make([]core.Result, len(jobs))
	var mu sync.Mutex // serializes progress lines
	// A run fails only by panicking (an invalid Config), which Do
	// re-raises here, so there is no error to return.
	_ = runner.Do(o.Workers, len(jobs), func(p *runner.Pool, i int) error {
		res := p.Run(jobs[i].Config)
		results[i] = res
		mu.Lock()
		o.logf("  %s: consumed %.1f J, delivered %d, elapsed %.0f s",
			jobs[i].Label, res.TotalConsumedJ, res.Delivered, res.Elapsed.Seconds())
		mu.Unlock()
		return nil
	})
	return results
}

// nodes returns the scaled node count (never below 20, so clustering and
// contention stay meaningful).
func (o Options) nodes() int {
	n := int(100*o.scale() + 0.5)
	if n < 20 {
		n = 20
	}
	return n
}

// horizon returns a scaled duration.
func (o Options) horizon(full sim.Time) sim.Time {
	h := sim.Time(float64(full) * o.scale())
	if h < 30*sim.Second {
		h = 30 * sim.Second
	}
	return h
}

// loads returns the paper's traffic-load sweep (Fig. 10-12 x-axis),
// thinned under scaling.
func (o Options) loads() []float64 {
	full := []float64{5, 10, 15, 20, 25, 30}
	if o.scale() >= 0.8 {
		return full
	}
	return []float64{5, 15, 30}
}

// baseConfig returns the Table II configuration at the experiment scale.
func (o Options) baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Nodes = o.nodes()
	// Keep node density constant when shrinking, so cluster geometry and
	// channel statistics stay comparable.
	side := 100.0 * sqrtf(float64(cfg.Nodes)/100.0)
	cfg.FieldWidth, cfg.FieldHeight = side, side
	return cfg
}

func sqrtf(x float64) float64 {
	// Newton iterations are plenty here and avoid importing math for one
	// call site... but clarity beats cleverness:
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// protocols lists the three variants in presentation order with the
// paper's labels.
type protocolCase struct {
	name   string
	policy queueing.ThresholdPolicy
}

func protocolCases() []protocolCase {
	return []protocolCase{
		{"pure-LEACH", queueing.PolicyNone},
		{"Scheme1", queueing.PolicyAdaptive},
		{"Scheme2", queueing.PolicyFixedHighest},
	}
}

// Table is a simple rectangular result table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends one row; the cell count must match the headers.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("experiment: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render returns the table with aligned columns.
func (t Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table as comma-separated values (cells are simple
// numbers/labels, so no quoting is needed).
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Report is one experiment's output.
type Report struct {
	// ID is the experiment key ("figure8", "table1", ...).
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Table holds the regenerated rows/series.
	Table Table
	// Notes are headline observations (the claims EXPERIMENTS.md checks).
	Notes []string
	// Charts optionally carry figure renderings (cmd/caem-bench writes
	// them as SVG next to the CSVs).
	Charts []plot.Chart
}

// Render returns the full human-readable report.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	b.WriteString(r.Table.Render())
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// f0 renders count-valued metrics (packets, nodes, events): replicate
// means round to whole units, and a single replicate reproduces the
// legacy integer cells exactly.
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
