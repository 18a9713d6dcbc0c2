package caem

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario/gen"
)

// fuzzFamilies are compact variants of the generator presets: small
// worlds at a 60-second horizon with boosted event rates, so every fuzz
// input executes a dense timeline in milliseconds. Between them the
// seven variants emphasize each world-event category.
func fuzzFamilies() []gen.Family {
	base := gen.Family{
		Nodes: 24, FieldWidthM: 60, FieldHeightM: 60,
		DurationSeconds: 60, EventDensity: 3,
	}
	variants := []struct {
		name string
		mut  func(*gen.Family)
	}{
		{"fuzz-mixed", func(f *gen.Family) {
			f.ChurnRate, f.LoadShape, f.Weather = 3, "bursty", "variable"
			f.Heterogeneity, f.MobilityRate, f.InterferenceRate, f.SinkOutages = 0.3, 2, 2, 1
		}},
		{"fuzz-churn", func(f *gen.Family) { f.ChurnRate = 8 }},
		{"fuzz-mobile", func(f *gen.Family) { f.MobilityRate, f.Weather = 6, "variable" }},
		{"fuzz-interference", func(f *gen.Family) {
			f.InterferenceRate, f.Weather, f.LoadShape = 6, "stormy", "bursty"
		}},
		{"fuzz-sink", func(f *gen.Family) { f.SinkOutages, f.LoadShape = 2, "diurnal" }},
		{"fuzz-load", func(f *gen.Family) { f.LoadShape, f.Heterogeneity = "diurnal", 0.5 }},
		{"fuzz-dense", func(f *gen.Family) {
			f.ChurnRate, f.LoadShape, f.Weather = 4, "bursty", "stormy"
			f.Heterogeneity, f.MobilityRate, f.InterferenceRate, f.SinkOutages = 0.4, 4, 4, 2
		}},
	}
	out := make([]gen.Family, len(variants))
	for i, v := range variants {
		f := base
		f.Name = v.name
		v.mut(&f)
		out[i] = f
	}
	return out
}

// fuzzCorpus seeds FuzzScenarioDeterminism: three (index, seed) pairs
// per family variant, 21 specs total. TestFuzzCorpusSpansAllCategories
// proves the corpus exercises every world-event category.
var fuzzCorpus = []struct {
	family uint8
	index  int
	seed   uint64
}{
	{0, 0, 1}, {0, 1, 42}, {0, 5, 0xfeed},
	{1, 0, 1}, {1, 1, 42}, {1, 5, 0xfeed},
	{2, 0, 1}, {2, 1, 42}, {2, 5, 0xfeed},
	{3, 0, 1}, {3, 1, 42}, {3, 5, 0xfeed},
	{4, 0, 1}, {4, 1, 42}, {4, 5, 0xfeed},
	{5, 0, 1}, {5, 1, 42}, {5, 5, 0xfeed},
	{6, 0, 1}, {6, 1, 42}, {6, 5, 0xfeed},
}

// fuzzSpec maps one fuzz input to a generated scenario and its resolved
// run configuration (folding arbitrary fuzz values into range).
func fuzzSpec(t testing.TB, familyIdx uint8, index int, seed uint64) (Scenario, Config) {
	fams := fuzzFamilies()
	fam := fams[int(familyIdx)%len(fams)]
	if index < 0 {
		index = -(index + 1)
	}
	index %= 64
	sc, err := gen.Generate(fam, index, seed)
	if err != nil {
		t.Fatalf("generate(%s, %d, %d): %v", fam.Name, index, seed, err)
	}
	cfg, err := ScenarioConfig(sc)
	if err != nil {
		t.Fatalf("scenario config: %v", err)
	}
	cfg.Seed = seed%1000 + 1
	cfg.SampleIntervalSeconds = 10
	// Forwarding on, so sink-down events are behavior, not no-ops.
	cfg.Advanced.BaseStationForwarding = true
	return sc, cfg
}

// FuzzScenarioDeterminism is the tentpole property-based harness: ANY
// generated scenario must run bit-identically across every execution
// strategy. For each (family, index, seed) input it differential-tests
//
//   - a traced fresh run, which simulates every arrival, vs an untraced
//     one, which elides the arrivals a full buffer drops — Results must
//     be deep-equal;
//   - a fresh one-shot context vs a resident pooled context, twice, so
//     the second pooled run exercises Reset-based reuse — Results and
//     full trace CSVs must match byte for byte;
//   - a serial (Workers=1) campaign grid vs a parallel (Workers=4) one
//     over two protocols and two seeds — cells must be deep-equal.
//
// In plain `go test` the corpus runs as 21 deterministic subtests
// spanning all seven world-event categories; `make fuzz` explores
// beyond the corpus.
func FuzzScenarioDeterminism(f *testing.F) {
	for _, c := range fuzzCorpus {
		f.Add(c.family, c.index, c.seed)
	}
	pool := runner.NewPool()
	f.Fuzz(func(t *testing.T, familyIdx uint8, index int, seed uint64) {
		sc, cfg := fuzzSpec(t, familyIdx, index, seed)

		var freshTrace bytes.Buffer
		freshCfg := cfg
		freshCfg.TraceCSV = &freshTrace
		fresh, err := RunScenario(sc, freshCfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", sc.Name, err)
		}
		elided, err := RunScenario(sc, cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(fresh, elided) {
			t.Fatalf("%s: traced and untraced results differ (dropped at the buffer %d vs %d of %d vs %d generated)",
				sc.Name, fresh.DroppedBuffer, elided.DroppedBuffer, fresh.Generated, elided.Generated)
		}
		for round := 0; round < 2; round++ {
			var pooledTrace bytes.Buffer
			pooledCfg := cfg
			pooledCfg.TraceCSV = &pooledTrace
			pooled, err := runScenarioPooled(pool, sc, pooledCfg)
			if err != nil {
				t.Fatalf("%s pooled round %d: %v", sc.Name, round, err)
			}
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("%s: fresh and pooled results differ (round %d)", sc.Name, round)
			}
			if !bytes.Equal(freshTrace.Bytes(), pooledTrace.Bytes()) {
				t.Fatalf("%s: fresh and pooled trace CSVs differ (round %d, %d vs %d bytes)",
					sc.Name, round, freshTrace.Len(), pooledTrace.Len())
			}
		}

		seeds := []uint64{cfg.Seed, cfg.Seed + 1}
		protos := []Protocol{PureLEACH, Scheme1}
		serialCfg := cfg
		serialCfg.Workers = 1
		serial, err := RunCampaign(serialCfg, []Scenario{sc}, protos, seeds)
		if err != nil {
			t.Fatalf("%s serial campaign: %v", sc.Name, err)
		}
		parallelCfg := cfg
		parallelCfg.Workers = 4
		parallel, err := RunCampaign(parallelCfg, []Scenario{sc}, protos, seeds)
		if err != nil {
			t.Fatalf("%s parallel campaign: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: serial and 4-worker campaigns differ", sc.Name)
		}
	})
}

// TestFuzzCorpusSpansAllCategories pins the acceptance property of the
// determinism corpus: the 21 seed specs between them must contain every
// world-event category, so the differential harness exercises mobility,
// interference, and sink failover alongside the original five.
func TestFuzzCorpusSpansAllCategories(t *testing.T) {
	categories := map[ScenarioEventType]string{
		EventKill: "lifecycle", EventRevive: "lifecycle",
		EventTopUp:   "energy",
		EventSetRate: "traffic", EventScaleRate: "traffic",
		EventRampRate: "traffic", EventBurst: "traffic",
		EventChannel:      "channel",
		EventMove:         "mobility",
		EventInterference: "interference",
		EventSinkDown:     "sink", EventSinkUp: "sink",
	}
	seen := map[string]bool{}
	for _, c := range fuzzCorpus {
		sc, _ := fuzzSpec(t, c.family, c.index, c.seed)
		for _, ev := range sc.Timeline {
			seen[categories[ev.Type]] = true
		}
	}
	for _, want := range []string{"lifecycle", "energy", "traffic", "channel", "mobility", "interference", "sink"} {
		if !seen[want] {
			t.Errorf("determinism corpus has no %s event", want)
		}
	}
}
