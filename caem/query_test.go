package caem

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/store"
)

// openSegmentedStore opens a campaign store that rolls its tail every
// 700 bytes, so a handful of cells spans several sealed segments.
func openSegmentedStore(t *testing.T, dir string) *CampaignStore {
	t.Helper()
	s, err := store.OpenWith(dir, store.Options{SegmentBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	return &CampaignStore{s: s}
}

// qcell builds a synthetic stored cell with a controlled delay metric.
func qcell(scen string, p Protocol, seed uint64, delay float64) CampaignCell {
	c := CampaignCell{Scenario: scen, Protocol: p, Seed: seed}
	c.Result.Protocol = p
	c.Result.MeanDelayMs = delay
	c.Result.DeliveryRate = 1 - delay/1000
	c.Result.TotalConsumedJ = delay * 2
	c.Result.AliveAtEnd = 100
	return c
}

// queryHash is the content hash the query grid's cells are stored
// under.
const queryHash = "cafe0123cafe0123"

// queryRef addresses one cell of the query grid.
type queryRef struct {
	Scenario string
	Protocol Protocol
	Seed     uint64
}

// fillQueryStore stores a 2-scenario × 2-protocol × 4-seed grid with
// deterministic metric values and returns its refs in grid order.
func fillQueryStore(t *testing.T, cs *CampaignStore) []queryRef {
	t.Helper()
	refs := make([]queryRef, 0, 16)
	for _, scen := range []string{"churn", "storm"} {
		for _, p := range []Protocol{PureLEACH, Scheme1} {
			for seed := uint64(1); seed <= 4; seed++ {
				delay := float64(seed * 10)
				if scen == "storm" {
					delay += 100
				}
				if p == Scheme1 {
					delay += 1
				}
				if err := cs.PutCell("qtest", queryHash, qcell(scen, p, seed, delay)); err != nil {
					t.Fatal(err)
				}
				refs = append(refs, queryRef{Scenario: scen, Protocol: p, Seed: seed})
			}
		}
	}
	return refs
}

// lookupGrid reads every ref's cell back by key, in ref order.
func lookupGrid(t *testing.T, cs *CampaignStore, refs []queryRef) []CampaignCell {
	t.Helper()
	cells := make([]CampaignCell, 0, len(refs))
	for _, ref := range refs {
		cell, ok, err := cs.LookupCell(queryHash, ref.Scenario, ref.Protocol, ref.Seed)
		if err != nil || !ok {
			t.Fatalf("LookupCell(%+v) = ok=%v err=%v", ref, ok, err)
		}
		cells = append(cells, cell)
	}
	return cells
}

// TestFilterCellsOverStoredGrid: a grid read back by key from a
// segmented store comes back whole and in grid order, loading each
// segment index at most once, and a pending cell reads as absent.
// Filtered, range-limited and top-k queries over it select exactly the
// right cells, and invalid queries are rejected.
func TestFilterCellsOverStoredGrid(t *testing.T) {
	cs := openSegmentedStore(t, t.TempDir())
	defer cs.Close()
	refs := fillQueryStore(t, cs)
	if cs.Stats().Segments == 0 {
		t.Fatal("precondition: store did not segment")
	}

	all := lookupGrid(t, cs, refs)
	for i, c := range all {
		if c.Scenario != refs[i].Scenario || c.Protocol != refs[i].Protocol || c.Seed != refs[i].Seed {
			t.Fatalf("cell %d out of grid order: %+v", i, c)
		}
	}
	if st := cs.Stats(); st.SegmentLoads > uint64(st.Segments) {
		t.Fatalf("SegmentLoads = %d > segments = %d (indexes reloaded?)", st.SegmentLoads, st.Segments)
	}
	if _, ok, err := cs.LookupCell(queryHash, "churn", PureLEACH, 5); ok || err != nil {
		t.Fatalf("pending cell = ok=%v err=%v, want absent", ok, err)
	}

	// Unfiltered: the whole grid in grid order.
	got, err := FilterCells(all, CellQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatal("the zero query changed the cell set")
	}

	// Scenario + protocol filter.
	got, err = FilterCells(all, CellQuery{Scenario: "storm", Protocol: Scheme1.String()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("filtered query returned %d cells, want 4", len(got))
	}
	for _, c := range got {
		if c.Scenario != "storm" || c.Protocol != Scheme1 {
			t.Fatalf("filter leaked cell %+v", c)
		}
	}

	// Metric range: delays in churn are 10..41; keep [20, 31].
	lo, hi := 20.0, 31.0
	got, err = FilterCells(all, CellQuery{Scenario: "churn", Metric: "meanDelayMs", Min: &lo, Max: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // seeds 2,3 for both protocols
		t.Fatalf("range query returned %d cells, want 4", len(got))
	}
	for _, c := range got {
		if c.Result.MeanDelayMs < lo || c.Result.MeanDelayMs > hi {
			t.Fatalf("range query leaked delay %g", c.Result.MeanDelayMs)
		}
	}

	// Top-k by metric, descending.
	got, err = FilterCells(all, CellQuery{Metric: "meanDelayMs", Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("top-k returned %d cells, want 3", len(got))
	}
	wantDelays := []float64{141, 140, 131} // storm/scheme1 seed4, storm/leach seed4, storm/scheme1 seed3
	for i, c := range got {
		if c.Result.MeanDelayMs != wantDelays[i] {
			t.Fatalf("top-k[%d] delay = %g, want %g", i, c.Result.MeanDelayMs, wantDelays[i])
		}
	}

	// Ties and NaN, in memory because the store cannot hold a NaN: every
	// cut must equal a stable sort of the whole set (largest first, NaN
	// last, ties in input order) cut to k. The set is large enough that
	// the sort cannot fall back to insertion sort, which is stable anyway.
	var mixed []CampaignCell
	values := []float64{5, math.NaN(), 7, 5, 7, math.NaN(), 1, 7, 5, math.Inf(-1)}
	for i := 0; i < 64; i++ {
		mixed = append(mixed, qcell("mixed", PureLEACH, uint64(i), values[i*7%len(values)]))
	}
	ref := append([]CampaignCell(nil), mixed...)
	sort.SliceStable(ref, func(i, j int) bool {
		vi, vj := ref[i].Result.MeanDelayMs, ref[j].Result.MeanDelayMs
		if math.IsNaN(vj) {
			return !math.IsNaN(vi)
		}
		return !math.IsNaN(vi) && vi > vj
	})
	for k := 1; k <= len(mixed)+1; k++ {
		got, err := FilterCells(mixed, CellQuery{Metric: "meanDelayMs", Top: k})
		if err != nil {
			t.Fatal(err)
		}
		want := ref[:min(k, len(ref))]
		if len(got) != len(want) {
			t.Fatalf("top-%d of the tied set returned %d cells, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Seed != want[i].Seed {
				t.Fatalf("top-%d[%d] = seed %d, want seed %d", k, i, got[i].Seed, want[i].Seed)
			}
		}
	}

	// Invalid queries are rejected, not silently misread.
	if _, err := FilterCells(all, CellQuery{Metric: "noSuchMetric", Top: 1}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := FilterCells(all, CellQuery{Top: 1}); err == nil {
		t.Fatal("top-k without metric accepted")
	}
	if _, err := FilterCells(all, CellQuery{Metric: "meanDelayMs", Min: &hi, Max: &lo}); err == nil {
		t.Fatal("empty range accepted")
	}
}

// TestFlatLogMigrationAggregates: a flat-log store (one tail past the
// segment threshold) yields byte-identical aggregates of its cells, read
// back by key in grid order, after open rolls it into segments — the
// caem-level half of the store migration contract.
func TestFlatLogMigrationAggregates(t *testing.T) {
	dir := t.TempDir()
	cs, err := OpenStore(dir) // default threshold: stays a flat log
	if err != nil {
		t.Fatal(err)
	}
	refs := fillQueryStore(t, cs)
	wantBlob, err := json.Marshal(AggregateCampaign(lookupGrid(t, cs, refs)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs2 := openSegmentedStore(t, dir)
	defer cs2.Close()
	if cs2.Stats().Segments == 0 {
		t.Fatal("migration open did not segment the flat log")
	}
	if cs2.Len() != len(refs) {
		t.Fatalf("migrated store holds %d cells, want %d", cs2.Len(), len(refs))
	}
	gotBlob, err := json.Marshal(AggregateCampaign(lookupGrid(t, cs2, refs)))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBlob) != string(wantBlob) {
		t.Fatalf("migrated aggregates diverged:\n got %s\nwant %s", gotBlob, wantBlob)
	}
}

// TestMetricRegistry: every advertised metric extracts, unknown names
// fail closed.
func TestMetricRegistry(t *testing.T) {
	names := MetricNames()
	if len(names) < 20 {
		t.Fatalf("only %d metrics registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MetricNames not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
	r := qcell("s", PureLEACH, 1, 42).Result
	for _, name := range names {
		if _, ok := MetricOf(r, name); !ok {
			t.Fatalf("advertised metric %q does not extract", name)
		}
	}
	if v, ok := MetricOf(r, "meanDelayMs"); !ok || v != 42 {
		t.Fatalf("meanDelayMs = %g ok=%v, want 42", v, ok)
	}
	if _, ok := MetricOf(r, "bogus"); ok {
		t.Fatal("unknown metric extracted")
	}
}

// TestPercentileSurface: exact order statistics per (scenario,
// protocol) group, with linear interpolation between ranks.
func TestPercentileSurface(t *testing.T) {
	cells := []CampaignCell{
		qcell("a", PureLEACH, 1, 10),
		qcell("a", PureLEACH, 2, 20),
		qcell("a", PureLEACH, 3, 30),
		qcell("a", PureLEACH, 4, 40),
		qcell("b", Scheme1, 1, 5),
	}
	surfaces, err := PercentileSurface(cells, "meanDelayMs", []float64{0, 50, 95, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(surfaces) != 2 {
		t.Fatalf("%d surfaces, want 2", len(surfaces))
	}
	a := surfaces[0]
	if a.Scenario != "a" || a.N != 4 || a.Metric != "meanDelayMs" {
		t.Fatalf("surface identity: %+v", a)
	}
	want := []float64{10, 25, 38.5, 40}
	for i, p := range a.Percentiles {
		if math.Abs(p.Value-want[i]) > 1e-12 {
			t.Fatalf("p%g = %g, want %g", p.P, p.Value, want[i])
		}
	}
	b := surfaces[1]
	if b.N != 1 || b.Percentiles[0].Value != 5 || b.Percentiles[3].Value != 5 {
		t.Fatalf("single-replicate surface: %+v", b)
	}

	if _, err := PercentileSurface(cells, "bogus", []float64{50}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := PercentileSurface(cells, "meanDelayMs", nil); err == nil {
		t.Fatal("empty percentile list accepted")
	}
	if _, err := PercentileSurface(cells, "meanDelayMs", []float64{101}); err == nil {
		t.Fatal("out-of-range percentile accepted")
	}
}
