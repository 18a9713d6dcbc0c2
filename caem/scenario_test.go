package caem

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestParseProtocol covers the CLI/scenario-file protocol spellings and
// the text round trip.
func TestParseProtocol(t *testing.T) {
	cases := map[string]Protocol{
		"leach": PureLEACH, "pure-LEACH": PureLEACH, "NONE": PureLEACH,
		"scheme1": Scheme1, "s1": Scheme1, "adaptive": Scheme1, "CAEM-scheme1": Scheme1,
		"scheme2": Scheme2, "s2": Scheme2, "fixed": Scheme2, "CAEM-scheme2": Scheme2,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseProtocol("scheme3"); err == nil {
		t.Error("unknown protocol accepted")
	}
	for _, p := range Protocols() {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var back Protocol
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("text round trip %v -> %s -> %v (%v)", p, text, back, err)
		}
	}
	if _, err := Protocol(9).MarshalText(); err == nil {
		t.Error("unknown protocol marshalled")
	}
}

// TestConfigJSONRoundTrip: a marshalled-then-unmarshalled Config must
// produce a bit-identical run — the property scenario files rely on to
// embed config overrides.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = Scheme2
	cfg.Seed = 7
	cfg.Nodes = 30
	cfg.FieldWidthM, cfg.FieldHeightM = 55, 55
	cfg.TrafficLoad = 12
	cfg.BufferCapacity = 0 // unbounded: a meaningful zero must survive
	cfg.DurationSeconds = 60
	cfg.Advanced.DopplerHz = 4
	cfg.Advanced.MinBurst = 2

	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("config round trip mismatch:\n in  %+v\n out %+v", cfg, back)
	}

	want, err := Run(cfg)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	got, err := Run(back)
	if err != nil {
		t.Fatalf("run round-tripped: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("round-tripped config produced a different run")
	}
}

// TestLibraryScenarios: every shipped scenario loads, resolves a valid
// config, and runs end to end at a short horizon.
func TestLibraryScenarios(t *testing.T) {
	lib, err := LibraryScenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) < 5 {
		t.Fatalf("library has %d scenarios, want >= 5", len(lib))
	}
	want := map[string]bool{
		"diurnal-load": false, "node-churn": false, "battery-heterogeneity": false,
		"fading-storm": false, "hotspot-cluster": false,
	}
	for _, sc := range lib {
		if _, ok := want[sc.Name]; ok {
			want[sc.Name] = true
		}
		if sc.Description == "" {
			t.Errorf("scenario %q has no description", sc.Name)
		}
		cfg, err := ScenarioConfig(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		cfg.DurationSeconds = 20
		res, err := RunScenario(sc, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Generated == 0 {
			t.Errorf("%s: no traffic generated", sc.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("curated scenario %q missing from library", name)
		}
	}
	if _, err := FindScenario("node-churn"); err != nil {
		t.Errorf("FindScenario: %v", err)
	}
	if _, err := FindScenario("no-such"); err == nil {
		t.Error("FindScenario accepted a bogus name")
	}
}

// TestCampaignDeterminism: the full campaign grid must be bit-identical
// between serial (-workers=1) and parallel (-workers=N) execution — the
// property that makes grid campaigns trustworthy experiment artifacts.
func TestCampaignDeterminism(t *testing.T) {
	lib, err := LibraryScenarios()
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.DurationSeconds = 15
	seeds := []uint64{1, 2}

	base.Workers = 1
	serial, err := RunCampaign(base, lib, []Protocol{Scheme1}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 4
	parallel, err := RunCampaign(base, lib, []Protocol{Scheme1}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(lib)*len(seeds) {
		t.Fatalf("grid size %d, want %d", len(serial), len(lib)*len(seeds))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel campaign diverged from serial")
	}
	// Submission order: scenario-major, then seed.
	for i, cell := range serial {
		wantScenario := lib[i/len(seeds)].Name
		wantSeed := seeds[i%len(seeds)]
		if cell.Scenario != wantScenario || cell.Seed != wantSeed {
			t.Fatalf("cell %d = (%s, seed %d), want (%s, seed %d)",
				i, cell.Scenario, cell.Seed, wantScenario, wantSeed)
		}
	}
}

// TestScenarioChangesOutcome: the node-churn scenario's injected failures
// must visibly change the run relative to the same config without a
// scenario.
func TestScenarioChangesOutcome(t *testing.T) {
	sc, err := FindScenario("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ScenarioConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DurationSeconds = 200 // past the 150 s kill, before the 350 s revive

	static, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := RunScenario(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if static.AliveAtEnd != cfg.Nodes {
		t.Fatalf("static baseline lost nodes (%d/%d) — shorten the horizon", static.AliveAtEnd, cfg.Nodes)
	}
	if churned.AliveAtEnd != cfg.Nodes-20 {
		t.Fatalf("churned alive = %d, want %d", churned.AliveAtEnd, cfg.Nodes-20)
	}
	if churned.Generated >= static.Generated {
		t.Fatalf("killing 20%% of sources did not reduce traffic: %d >= %d", churned.Generated, static.Generated)
	}
}

// TestGenerateScenariosCap: a count past MaxCampaignScenarios is refused
// before any scenario is generated or any slice for them is allocated,
// so a mistyped count fails at once instead of exhausting memory.
func TestGenerateScenariosCap(t *testing.T) {
	var scs []Scenario
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		scs, err = GenerateScenarios("dense", MaxCampaignScenarios+1, 1)
	})
	if err == nil || scs != nil {
		t.Fatalf("GenerateScenarios(cap+1) = %d scenarios, %v; want an error", len(scs), err)
	}
	if want := "more than the cap of 256"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the cap (%q)", err, want)
	}
	if allocs > 5 {
		t.Fatalf("refusing cap+1 made %v allocations, want only the error's", allocs)
	}
}
