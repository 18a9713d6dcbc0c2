package experiment

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// quickOpts runs experiments at a small scale that still exercises every
// code path: two seed replicates keep the CI machinery live (mean ± CI
// cells, paired deltas) at test speed.
func quickOpts() Options {
	return Options{Seed: 1, Scale: 0.2, Replications: 2}
}

func TestSeedListDefaults(t *testing.T) {
	if got := (Options{Seed: 3}).seedList(); len(got) != defaultReplications || got[0] != 3 || got[4] != 7 {
		t.Fatalf("default seed list = %v, want 5 consecutive from 3", got)
	}
	if got := (Options{Seed: 1, Replications: 2}).seedList(); len(got) != 2 || got[1] != 2 {
		t.Fatalf("2-rep seed list = %v", got)
	}
	pinned := []uint64{7, 11, 13}
	if got := (Options{Seed: 1, Replications: 9, Seeds: pinned}).seedList(); len(got) != 3 || got[0] != 7 {
		t.Fatalf("pinned seed list = %v, want %v", got, pinned)
	}
}

func TestTableHelpers(t *testing.T) {
	tab := Table{Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.Render()
	if !strings.Contains(out, "a    bb") {
		t.Fatalf("render misaligned:\n%s", out)
	}
	csv := tab.CSV()
	if csv != "a,bb\n1,2\n333,4\n" {
		t.Fatalf("csv = %q", csv)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tab := Table{Headers: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.2}
	if n := o.nodes(); n != 20 {
		t.Errorf("nodes at 0.2 scale = %d, want 20", n)
	}
	o.Scale = 0
	if o.scale() != 1.0 {
		t.Error("zero scale should default to 1")
	}
	o.Scale = 2
	if o.scale() != 1.0 {
		t.Error("out-of-range scale should default to 1")
	}
	if len((Options{Scale: 0.2}).loads()) >= len((Options{Scale: 1}).loads()) {
		t.Error("scaled sweep not thinner")
	}
}

func TestTableI(t *testing.T) {
	r := TableI(quickOpts())
	if r.ID != "table1" {
		t.Fatalf("id = %q", r.ID)
	}
	if len(r.Table.Rows) != 4 {
		t.Fatalf("Table I has %d rows, want 4 states", len(r.Table.Rows))
	}
	out := r.Render()
	for _, want := range []string{"idle", "receive", "collision", "transmit", "50.0", "10.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableII(t *testing.T) {
	r := TableII(quickOpts())
	if len(r.Table.Rows) < 20 {
		t.Fatalf("Table II has only %d rows", len(r.Table.Rows))
	}
	out := r.Render()
	for _, want := range []string{"0.66 W", "0.305 W", "2000 bits", "10 J", "3 / 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestFigure8(t *testing.T) {
	r := Figure8(quickOpts())
	if len(r.Table.Rows) < 10 {
		t.Fatalf("Figure 8 has %d rows", len(r.Table.Rows))
	}
	if len(r.Table.Headers) != 4 {
		t.Fatalf("Figure 8 headers: %v", r.Table.Headers)
	}
	// First row is t=0 with full batteries in every replicate: the mean
	// is exactly 10 and the CI is exactly ±0 (constant series).
	first := r.Table.Rows[0]
	for _, cell := range first[1:] {
		if cell != "10.000±0.000" {
			t.Errorf("t=0 energy cell = %q, want 10.000±0.000", cell)
		}
	}
}

func TestFigure9(t *testing.T) {
	r := Figure9(quickOpts())
	if len(r.Table.Rows) < 10 {
		t.Fatalf("Figure 9 has %d rows", len(r.Table.Rows))
	}
	if len(r.Notes) == 0 {
		t.Fatal("Figure 9 has no notes")
	}
}

func TestFigure10(t *testing.T) {
	r := Figure10(quickOpts())
	if len(r.Table.Rows) != len(quickOpts().loads()) {
		t.Fatalf("Figure 10 rows = %d, want one per load", len(r.Table.Rows))
	}
}

func TestFigure11(t *testing.T) {
	r := Figure11(quickOpts())
	if len(r.Table.Rows) != len(quickOpts().loads()) {
		t.Fatalf("Figure 11 rows = %d", len(r.Table.Rows))
	}
	// The saving column must be present and positive at the first load.
	row := r.Table.Rows[0]
	if !strings.Contains(row[len(row)-1], "%") {
		t.Fatalf("saving cell = %q", row[len(row)-1])
	}
	if strings.HasPrefix(row[len(row)-1], "-") {
		t.Errorf("Scheme 1 saving negative at load %s: %s", row[0], row[len(row)-1])
	}
}

func TestFigure12(t *testing.T) {
	r := Figure12(quickOpts())
	if len(r.Table.Rows) != len(quickOpts().loads()) {
		t.Fatalf("Figure 12 rows = %d", len(r.Table.Rows))
	}
}

func TestNetworkPerformance(t *testing.T) {
	r := NetworkPerformance(quickOpts())
	want := len(quickOpts().loads()) * 3
	if len(r.Table.Rows) != want {
		t.Fatalf("netperf rows = %d, want %d", len(r.Table.Rows), want)
	}
}

func TestAblations(t *testing.T) {
	if r := AblationThresholdParams(quickOpts()); len(r.Table.Rows) == 0 {
		t.Error("threshold ablation empty")
	}
	if r := AblationDoppler(quickOpts()); len(r.Table.Rows) == 0 {
		t.Error("doppler ablation empty")
	}
	if r := AblationBurst(quickOpts()); len(r.Table.Rows) == 0 {
		t.Error("burst ablation empty")
	}
	if r := AblationCSINoise(quickOpts()); len(r.Table.Rows) == 0 {
		t.Error("csi-noise ablation empty")
	}
	if r := AblationRician(quickOpts()); len(r.Table.Rows) == 0 {
		t.Error("rician ablation empty")
	}
}

func TestSeedSweep(t *testing.T) {
	r := SeedSweep(quickOpts())
	// One row per protocol plus one paired-delta row per CAEM variant.
	if len(r.Table.Rows) != 5 {
		t.Fatalf("seed sweep rows = %d, want 3 protocols + 2 delta rows", len(r.Table.Rows))
	}
	if got := r.Table.Rows[3][0]; !strings.Contains(got, "Scheme1") || !strings.Contains(got, "Δ") {
		t.Fatalf("delta row label = %q", got)
	}
	// The energy/pkt delta column must carry a paired CI (2 replicates).
	if got := r.Table.Rows[3][3]; !strings.Contains(got, "±") {
		t.Fatalf("paired delta cell = %q, want mean±CI", got)
	}
	var sawVerdict bool
	for _, n := range r.Notes {
		if strings.Contains(n, "significant") {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatalf("no significance verdict in notes: %v", r.Notes)
	}
}

// Every simulation-backed report must carry mean ± 95% CI cells when
// replications are on — the acceptance criterion that converts each
// downstream figure from anecdote to estimate.
func TestReportsCarryConfidenceIntervals(t *testing.T) {
	opts := quickOpts()
	for _, rep := range []Report{Figure11(opts), Figure12(opts), NetworkPerformance(opts), DynamicWorld(opts)} {
		found := false
		for _, row := range rep.Table.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "±") {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: no ± cell in any row", rep.ID)
		}
		csv := rep.Table.CSV()
		if !strings.Contains(csv, "±") {
			t.Errorf("%s: CSV lost the CI columns", rep.ID)
		}
	}
}

// A single replication must reproduce the legacy single-seed table
// shape: bare means, no interval glyphs.
func TestSingleReplicationHasNoIntervals(t *testing.T) {
	opts := quickOpts()
	opts.Replications, opts.Seeds = 1, nil
	r := Figure12(opts)
	for _, row := range r.Table.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "±") {
				t.Fatalf("1-rep cell %q carries a CI", cell)
			}
		}
	}
}

// Parallel sweeps must render byte-identical reports: every run owns its
// random streams, and the runner returns results in submission order, so
// the worker count cannot leak into any artifact.
func TestDynamicWorld(t *testing.T) {
	r := DynamicWorld(quickOpts())
	if len(r.Table.Rows) != 3 {
		t.Fatalf("DynamicWorld rows = %d, want one per protocol", len(r.Table.Rows))
	}
	if len(r.Notes) < 2 {
		t.Fatalf("DynamicWorld notes = %v", r.Notes)
	}
	if len(r.Charts) != 2 {
		t.Fatalf("DynamicWorld charts = %d, want 2", len(r.Charts))
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "did NOT survive") {
			t.Errorf("unexpected ordering inversion: %s", n)
		}
	}
}

func TestParallelReportsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) Report
	}{
		{"Figure9", Figure9},
		{"AblationDoppler", AblationDoppler},
		{"DynamicWorld", DynamicWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := Options{Seed: 1, Scale: 0.1, Replications: 2, Workers: 1}
			parallel := Options{Seed: 1, Scale: 0.1, Replications: 2, Workers: 4}
			want := tc.run(serial).Render()
			got := tc.run(parallel).Render()
			if want != got {
				t.Fatalf("parallel report diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestReplicationDeterminism is the acceptance gate for the replicated
// statistics engine: the full cell × seed grid must aggregate
// bit-identically whether the runs execute serially or fan out across
// workers — rendered report AND raw CSV payload — because the runner
// returns results in submission order and every aggregation consumes
// them in that order.
func TestReplicationDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) Report
	}{
		{"Figure11", Figure11},
		{"SeedSweep", SeedSweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := Options{Seed: 1, Scale: 0.1, Replications: 3, Workers: 1}
			parallel := Options{Seed: 1, Scale: 0.1, Replications: 3, Workers: 8}
			wantRep, gotRep := tc.run(serial), tc.run(parallel)
			if want, got := wantRep.Render(), gotRep.Render(); want != got {
				t.Fatalf("parallel replicated report diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
			if want, got := wantRep.Table.CSV(), gotRep.Table.CSV(); want != got {
				t.Fatalf("parallel replicated CSV diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

func TestProgressCallback(t *testing.T) {
	opts := quickOpts()
	var lines int
	opts.Progress = func(string, ...any) { lines++ }
	TableI(opts) // no runs: no progress required
	Figure8(opts)
	if lines == 0 {
		t.Fatal("no progress lines emitted by Figure8")
	}
}

// Progress must report every run exactly once, serialized, when the
// runs fan out across workers.
func TestProgressCalledOncePerJob(t *testing.T) {
	base := quickOpts().baseConfig()
	base.Horizon = 30 * sim.Second
	jobs := make([]job, 12)
	for i := range jobs {
		jobs[i] = job{Label: string(rune('a' + i)), Config: base}
		jobs[i].Config.Seed = uint64(i + 1)
	}
	seen := map[string]int{}
	opts := Options{Workers: 4, Progress: func(format string, args ...any) {
		if len(args) == 4 { // a per-run line, not the batch header
			seen[args[0].(string)]++
		}
	}}
	opts.run(jobs)
	if len(seen) != len(jobs) {
		t.Fatalf("progress saw %d distinct runs, want %d", len(seen), len(jobs))
	}
	for label, n := range seen {
		if n != 1 {
			t.Fatalf("run %q reported %d times", label, n)
		}
	}
}

func TestFigureChartsPresent(t *testing.T) {
	opts := quickOpts()
	for _, rep := range []Report{Figure8(opts), Figure10(opts)} {
		if len(rep.Charts) == 0 {
			t.Errorf("%s has no chart", rep.ID)
			continue
		}
		svg := rep.Charts[0].SVG()
		if !strings.Contains(svg, "<polyline") {
			t.Errorf("%s chart has no data polylines", rep.ID)
		}
		if !strings.Contains(svg, "Scheme1") {
			t.Errorf("%s chart missing legend", rep.ID)
		}
	}
}
