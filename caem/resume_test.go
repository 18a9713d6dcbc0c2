package caem

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/store"
)

// resumeTestGrid is a small but real campaign: 2 scenarios × 2
// protocols × 2 seeds = 8 cells at a shortened horizon.
func resumeTestGrid(t *testing.T) (Config, []Scenario, []Protocol, []uint64) {
	t.Helper()
	churn, err := FindScenario("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	storm, err := FindScenario("fading-storm")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.DurationSeconds = 12
	base.Workers = 2
	return base, []Scenario{churn, storm}, []Protocol{PureLEACH, Scheme1}, []uint64{1, 2}
}

// summaries projects cells onto the stored metric view — the
// byte-comparable surface a resumed campaign promises to reproduce.
func summaries(t *testing.T, cells []CampaignCell) string {
	t.Helper()
	type row struct {
		Scenario string
		Protocol string
		Seed     uint64
		Summary  any
	}
	rows := make([]row, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, row{c.Scenario, c.Protocol.String(), c.Seed, summaryOf(c.Result)})
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestResumeEquivalence is the checkpoint/resume differential: a
// campaign killed at a checkpoint and resumed from its store must be
// byte-identical — summaries, formatted aggregates, and aggregate
// structures — to the same campaign run uninterrupted.
func TestResumeEquivalence(t *testing.T) {
	base, scs, protos, seeds := resumeTestGrid(t)

	fresh, err := RunCampaign(base, scs, protos, seeds)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Phase 1: run to a 3-cell checkpoint, then "die".
	partial, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{
		Store: st, Resume: true, MaxRuns: 3, Campaign: "resume-test",
	})
	if !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("checkpointed campaign returned %v, want ErrCampaignHalted", err)
	}
	if len(partial) != 3 {
		t.Fatalf("checkpoint completed %d cells, want 3", len(partial))
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d cells at checkpoint, want 3", st.Len())
	}

	// Phase 2: restart and resume to completion.
	resumed, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{
		Store: st, Resume: true, Campaign: "resume-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(fresh) {
		t.Fatalf("resumed campaign has %d cells, want %d", len(resumed), len(fresh))
	}
	restoredCount := 0
	for i, c := range resumed {
		if c.Scenario != fresh[i].Scenario || c.Protocol != fresh[i].Protocol || c.Seed != fresh[i].Seed {
			t.Fatalf("cell %d identity diverged: %+v", i, c)
		}
		if c.Restored {
			restoredCount++
		}
	}
	if restoredCount != 3 {
		t.Fatalf("resumed campaign restored %d cells, want the 3 checkpointed ones", restoredCount)
	}

	if got, want := summaries(t, resumed), summaries(t, fresh); got != want {
		t.Fatalf("resumed summaries diverged from fresh run:\n got %s\nwant %s", got, want)
	}
	aggFresh, aggResumed := AggregateCampaign(fresh), AggregateCampaign(resumed)
	if !reflect.DeepEqual(aggFresh, aggResumed) {
		t.Fatalf("resumed aggregates diverged:\n got %+v\nwant %+v", aggResumed, aggFresh)
	}
	for i := range aggFresh {
		if aggFresh[i].ConsumedJ.Format(6) != aggResumed[i].ConsumedJ.Format(6) {
			t.Fatalf("formatted aggregate %d diverged", i)
		}
	}
}

// A serial campaign stops at its first failing store write: the cells
// before it stay stored, no later cell runs, and the write error is
// returned.
func TestSerialCampaignStopsAtStoreFault(t *testing.T) {
	base, scs, protos, seeds := resumeTestGrid(t)
	base.Workers = 1
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const k = 3 // the failing put
	injected := errors.New("injected write fault")
	puts := 0
	st.s.SetFault(func(op string) error {
		if op != "append" {
			return nil
		}
		if puts++; puts == k {
			return injected
		}
		return nil
	})
	cells, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{Store: st})
	if !errors.Is(err, injected) || cells != nil {
		t.Fatalf("campaign returned (%d cells, %v), want the injected fault", len(cells), err)
	}
	if puts != k {
		t.Fatalf("campaign attempted %d puts, want it to stop at put %d", puts, k)
	}
	if st.Len() != k-1 {
		t.Fatalf("store holds %d cells, want the %d stored before the fault", st.Len(), k-1)
	}
}

// TestGeneratedCampaignResume is the generated-scenario half of the
// checkpoint/resume differential: a campaign over GenerateScenarios
// specs is halted at a checkpoint, the store is closed and reopened (a
// process death), and the specs are REGENERATED from the same
// (family, count, seed) spelling — the resumed campaign must restore
// the checkpointed cells by content hash and finish byte-identical to
// an uninterrupted run. This is what lets caem-sim -gen and the
// caem-serve "generate" field persist only the generator inputs.
func TestGeneratedCampaignResume(t *testing.T) {
	base := DefaultConfig()
	base.DurationSeconds = 12
	base.Workers = 2
	protos := []Protocol{PureLEACH, Scheme1}
	seeds := []uint64{1, 2}

	gen := func() []Scenario {
		scs, err := GenerateScenarios("mixed", 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		return scs
	}

	fresh, err := RunCampaign(base, gen(), protos, seeds)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := RunCampaignWith(base, gen(), protos, seeds, CampaignOptions{
		Store: st, Resume: true, MaxRuns: 3, Campaign: "gen-resume",
	})
	if !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("checkpointed campaign returned %v, want ErrCampaignHalted", err)
	}
	if len(partial) != 3 || st.Len() != 3 {
		t.Fatalf("checkpoint completed %d cells with %d stored, want 3/3", len(partial), st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the store and regenerate the specs from scratch.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumed, err := RunCampaignWith(base, gen(), protos, seeds, CampaignOptions{
		Store: st2, Resume: true, Campaign: "gen-resume",
	})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, c := range resumed {
		if c.Restored {
			restored++
		}
	}
	if restored != 3 {
		t.Fatalf("resumed campaign restored %d cells, want the 3 checkpointed ones (regenerated specs rehashed differently?)", restored)
	}
	if got, want := summaries(t, resumed), summaries(t, fresh); got != want {
		t.Fatalf("generated-campaign resume diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(AggregateCampaign(fresh), AggregateCampaign(resumed)) {
		t.Fatal("generated-campaign aggregates diverged after resume")
	}
}

// TestResumeSurvivesStoreReopen: the same differential across a real
// store close/reopen — what a killed-and-restarted process does.
func TestResumeSurvivesStoreReopen(t *testing.T) {
	base, scs, protos, seeds := resumeTestGrid(t)
	dir := t.TempDir()

	fresh, err := RunCampaign(base, scs, protos, seeds)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{
		Store: st, Resume: true, MaxRuns: 5,
	}); !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("got %v, want ErrCampaignHalted", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 5 {
		t.Fatalf("reopened store holds %d cells, want 5", st2.Len())
	}
	resumed, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{Store: st2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaries(t, resumed), summaries(t, fresh); got != want {
		t.Fatal("resume across store reopen diverged from fresh run")
	}
}

// TestResumeIgnoresForeignCells: cells stored under a different
// configuration hash must never satisfy a resume lookup.
func TestResumeIgnoresForeignCells(t *testing.T) {
	base, scs, protos, seeds := resumeTestGrid(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Fully populate the store at a DIFFERENT duration.
	other := base
	other.DurationSeconds = 20
	if _, err := RunCampaignWith(other, scs, protos, seeds, CampaignOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 8 {
		t.Fatalf("store holds %d cells, want 8", st.Len())
	}

	// Resuming the original campaign must find nothing reusable.
	resumed, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{Store: st, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range resumed {
		if c.Restored {
			t.Fatalf("cell %d restored from a foreign configuration", i)
		}
	}
	// Both cell families now coexist in the store.
	if st.Len() != 16 {
		t.Fatalf("store holds %d cells, want 16 (two families)", st.Len())
	}
}

// TestCellHashNormalization: the per-cell axes and orchestration fields
// must not affect the hash; anything result-bearing must, the model
// version included.
func TestCellHashNormalization(t *testing.T) {
	sc, err := FindScenario("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	h0, err := CellHash(base, sc)
	if err != nil {
		t.Fatal(err)
	}

	varied := base
	varied.Protocol = PureLEACH
	varied.Seed = 99
	varied.Workers = 7
	if h, _ := CellHash(varied, sc); h != h0 {
		t.Fatal("hash depends on per-cell axes (protocol/seed/workers)")
	}

	changed := base
	changed.TrafficLoad = 9
	if h, _ := CellHash(changed, sc); h == h0 {
		t.Fatal("hash ignores a result-bearing config change")
	}

	sc2 := sc
	sc2.Description = sc.Description + " (edited)"
	if h, _ := CellHash(base, sc2); h == h0 {
		t.Fatal("hash ignores a scenario spec change")
	}

	if h, _ := cellHash(ModelVersion-1, base, sc); h == h0 {
		t.Fatal("hash ignores the model version")
	}
	// The hash builds before ModelVersion gave this cell: a store they
	// wrote must not serve it.
	if h0 == "2d66edc73122d4a4" {
		t.Fatal("hash equals the one model-1 builds gave the cell")
	}
}

// TestCampaignStoreAggregates: the stored cells, read back by key in
// submission order, aggregate exactly as the live campaign results do.
func TestCampaignStoreAggregates(t *testing.T) {
	base, scs, protos, seeds := resumeTestGrid(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cells, err := RunCampaignWith(base, scs, protos, seeds, CampaignOptions{Store: st, Campaign: "agg"})
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string]string, len(scs))
	for _, sc := range scs {
		if hashes[sc.Name], err = CellHash(base, sc); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != len(cells) {
		t.Fatalf("store holds %d cells, campaign ran %d", st.Len(), len(cells))
	}
	stored := make([]CampaignCell, 0, len(cells))
	for _, c := range cells {
		cell, ok, err := st.LookupCell(hashes[c.Scenario], c.Scenario, c.Protocol, c.Seed)
		if err != nil || !ok {
			t.Fatalf("LookupCell(%s/%s/%d) = ok=%v err=%v", c.Scenario, c.Protocol, c.Seed, ok, err)
		}
		stored = append(stored, cell)
	}
	if got, want := AggregateCampaign(stored), AggregateCampaign(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("stored cells aggregate differently:\n got %+v\nwant %+v", got, want)
	}
}

// TestSimPoolMatchesOneShot: the public pooled entry points are
// bit-identical to their one-shot equivalents.
func TestSimPoolMatchesOneShot(t *testing.T) {
	sc, err := FindScenario("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DurationSeconds = 12

	pool := NewSimPool()
	// Interleave shapes and kinds to exercise reset-in-place.
	for round := 0; round < 2; round++ {
		for _, seed := range []uint64{1, 5} {
			cfg.Seed = seed
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pool.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pooled Run diverged (round %d seed %d)", round, seed)
			}
			wantSc, err := RunScenario(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotSc, err := pool.RunScenario(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSc, wantSc) {
				t.Fatalf("pooled RunScenario diverged (round %d seed %d)", round, seed)
			}
		}
	}
}

// TestSummaryMappingComplete guards the hand-mirrored field lists of
// summaryOf (Result → store.Summary) and SummaryCell (store.Summary →
// Result): every Summary field is set to a distinct sentinel, pushed
// through SummaryCell and back through summaryOf, and must survive
// exactly.
// A metric added to one mapping but not the other would silently zero
// out in restored cells — this test turns that drift into a failure.
func TestSummaryMappingComplete(t *testing.T) {
	var s store.Summary
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(100 + i))
		case reflect.Int:
			f.SetInt(int64(100 + i))
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("store.Summary field %s has unhandled kind %v — extend this test", rv.Type().Field(i).Name, f.Kind())
		}
	}
	cell := SummaryCell("sc", Scheme1, 1, s)
	if back := summaryOf(cell.Result); back != s {
		t.Fatalf("summary did not survive SummaryCell→summaryOf:\n got %+v\nwant %+v", back, s)
	}
}

// TestAggregateJSONRoundTrip: NaN dispersion fields serialize as null
// and decode back to NaN.
func TestAggregateJSONRoundTrip(t *testing.T) {
	single := AggregateOf(3.5)
	blob, err := json.Marshal(single)
	if err != nil {
		t.Fatalf("single-replicate aggregate failed to marshal: %v", err)
	}
	var back Aggregate
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 1 || back.Mean != 3.5 || back.SD == back.SD || back.CI95 == back.CI95 { // NaN != NaN
		t.Fatalf("round-tripped single aggregate = %+v", back)
	}

	multi := AggregateOf(1, 2, 3)
	blob, err = json.Marshal(multi)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, multi) {
		t.Fatalf("multi aggregate round trip = %+v, want %+v", back, multi)
	}
}
