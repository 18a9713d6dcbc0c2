package caem

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// quickConfig is a small, fast public-API configuration.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 20
	cfg.FieldWidthM, cfg.FieldHeightM = 50, 50
	cfg.DurationSeconds = 40
	cfg.SampleIntervalSeconds = 2
	return cfg
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 100 {
		t.Errorf("Nodes = %d, want 100", cfg.Nodes)
	}
	if cfg.PacketSizeBits != 2000 {
		t.Errorf("PacketSizeBits = %d, want 2000 (2 Kbits)", cfg.PacketSizeBits)
	}
	if cfg.BufferCapacity != 50 {
		t.Errorf("BufferCapacity = %d, want 50", cfg.BufferCapacity)
	}
	if cfg.InitialEnergyJ != 10 {
		t.Errorf("InitialEnergyJ = %v, want 10", cfg.InitialEnergyJ)
	}
	if cfg.TrafficLoad != 5 {
		t.Errorf("TrafficLoad = %v, want 5", cfg.TrafficLoad)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestProtocolStrings(t *testing.T) {
	if PureLEACH.String() != "pure-LEACH" || Scheme1.String() != "CAEM-scheme1" || Scheme2.String() != "CAEM-scheme2" {
		t.Fatal("protocol names wrong")
	}
	if len(Protocols()) != 3 {
		t.Fatal("Protocols() should list 3 variants")
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	cfg := quickConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != cfg.Protocol {
		t.Error("result protocol mismatch")
	}
	if res.DurationSeconds <= 0 || res.Rounds <= 0 {
		t.Errorf("duration %v, rounds %d", res.DurationSeconds, res.Rounds)
	}
	if res.Generated == 0 || res.Delivered == 0 {
		t.Fatal("no traffic moved")
	}
	if res.DeliveryRate < 0 || res.DeliveryRate > 1 {
		t.Errorf("delivery rate %v", res.DeliveryRate)
	}
	if len(res.Nodes) != cfg.Nodes {
		t.Errorf("node outcomes %d, want %d", len(res.Nodes), cfg.Nodes)
	}
	if len(res.EnergySeries) == 0 || len(res.AliveSeries) == 0 {
		t.Error("time series empty")
	}
	var share float64
	for _, s := range res.ModeShare {
		share += s
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("mode shares sum to %v", share)
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
	// Energy breakdown sums to total consumed.
	var sum float64
	for _, j := range res.EnergyBreakdown {
		sum += j
	}
	if math.Abs(sum-res.TotalConsumedJ) > 1e-6 {
		t.Errorf("breakdown %v != consumed %v", sum, res.TotalConsumedJ)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := quickConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalConsumedJ != b.TotalConsumedJ || a.Delivered != b.Delivered || a.MeanDelayMs != b.MeanDelayMs {
		t.Fatal("equal configs diverged")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.Nodes = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
	cfg = quickConfig()
	cfg.Protocol = Protocol(99)
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown protocol")
	}
}

func TestRunComparison(t *testing.T) {
	results, err := RunComparison(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("comparison returned %d results", len(results))
	}
	for i, p := range Protocols() {
		if results[i].Protocol != p {
			t.Errorf("result %d is %v, want %v", i, results[i].Protocol, p)
		}
	}
	// All variants face the same topology + traffic (same seed).
	if results[0].Generated != results[1].Generated || results[1].Generated != results[2].Generated {
		t.Error("comparison runs generated different traffic")
	}
	// The paper's headline ordering.
	leach, s1, s2 := results[0], results[1], results[2]
	if !(s2.TotalConsumedJ < s1.TotalConsumedJ && s1.TotalConsumedJ < leach.TotalConsumedJ) {
		t.Errorf("energy ordering: leach=%.1f s1=%.1f s2=%.1f",
			leach.TotalConsumedJ, s1.TotalConsumedJ, s2.TotalConsumedJ)
	}
}

func TestRunComparisonSubset(t *testing.T) {
	results, err := RunComparison(quickConfig(), Scheme2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Protocol != Scheme2 {
		t.Fatal("subset comparison wrong")
	}
}

// A failing grid reports the same error at every worker count: the
// lowest failing variant wins, wrapped with its description.
func TestRunComparisonFailureSameAtEveryWorkerCount(t *testing.T) {
	var msgs []string
	for _, workers := range []int{1, 4} {
		cfg := quickConfig()
		cfg.Workers = workers
		res, err := RunComparison(cfg, PureLEACH, Protocol(9), Scheme2)
		if err == nil || res != nil {
			t.Fatalf("workers=%d: unknown protocol gave (%v, %v), want an error", workers, res, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("workers=1 and workers=4 disagree:\n %s\n %s", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[0], "Protocol(9) run failed") {
		t.Fatalf("error %q does not name the failing variant", msgs[0])
	}
}

// RunSeeds must return seed-ordered results that match individual Run
// calls exactly, for any worker count.
func TestRunSeedsMatchesIndividualRuns(t *testing.T) {
	cfg := quickConfig()
	seeds := []uint64{3, 1, 7}
	want := make([]Result, len(seeds))
	for i, s := range seeds {
		cc := cfg
		cc.Seed = s
		r, err := Run(cc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 0, 8} {
		cc := cfg
		cc.Workers = workers
		got, err := RunSeeds(cc, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(seeds) {
			t.Fatalf("workers=%d: %d results for %d seeds", workers, len(got), len(seeds))
		}
		for i := range seeds {
			if got[i].TotalConsumedJ != want[i].TotalConsumedJ ||
				got[i].Delivered != want[i].Delivered ||
				got[i].MeanDelayMs != want[i].MeanDelayMs {
				t.Fatalf("workers=%d: seed %d diverged from an individual run", workers, seeds[i])
			}
		}
	}
}

func TestAdvancedOverrides(t *testing.T) {
	cfg := quickConfig()
	cfg.Advanced = Advanced{
		RoundLengthSeconds: 5,
		DopplerHz:          4,
		QueueThreshold:     10,
		MinBurst:           2,
		MaxBurst:           4,
		StartupTimeMicros:  100,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 40 s / 5 s rounds = 8 rounds (+1 tolerance at the boundary).
	if res.Rounds < 8 || res.Rounds > 9 {
		t.Errorf("rounds = %d with 5 s rounds over 40 s", res.Rounds)
	}
	// Disabling shadowing via the negative sentinel still validates.
	cfg.Advanced.ShadowingSigmaDB = -1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStopWhenNetworkDeadPublic(t *testing.T) {
	cfg := quickConfig()
	cfg.InitialEnergyJ = 0.2
	cfg.DurationSeconds = 1000
	cfg.StopWhenNetworkDead = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NetworkDead {
		t.Fatal("network survived on 0.2 J")
	}
	if res.DurationSeconds >= 1000 {
		t.Fatal("did not stop early")
	}
	if res.NetworkLifetimeSeconds <= 0 || res.NetworkLifetimeSeconds > res.DurationSeconds {
		t.Fatalf("lifetime %v outside run (%v)", res.NetworkLifetimeSeconds, res.DurationSeconds)
	}
}

func TestRoundOutcomesExposed(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundOutcomes) != res.Rounds {
		t.Fatalf("round outcomes %d != rounds %d", len(res.RoundOutcomes), res.Rounds)
	}
	var delivered uint64
	for _, r := range res.RoundOutcomes {
		if r.Heads < 1 {
			t.Fatalf("round %d has no head", r.Index)
		}
		delivered += r.Delivered
	}
	if delivered != res.Delivered {
		t.Fatalf("per-round delivered %d != total %d", delivered, res.Delivered)
	}
}

func TestStreamCSV(t *testing.T) {
	var b strings.Builder
	fn, errf := streamCSV(&b)
	fn(core.TraceEvent{T: 1 * sim.Second, Kind: core.TraceDelivered, Node: 4})
	fn(core.TraceEvent{T: 2 * sim.Second, Kind: core.TraceDrop, Node: 5})
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1.000000,delivered,4,") {
		t.Fatalf("row = %q", lines[1])
	}
}

// failingWriter errors after remaining successful writes.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errors.New("simulated write failure")
	}
	w.remaining--
	return len(p), nil
}

func TestStreamCSVWriteFailure(t *testing.T) {
	fn, errf := streamCSV(&failingWriter{remaining: 1})
	fn(core.TraceEvent{T: 1, Kind: core.TraceDelivered}) // fails
	fn(core.TraceEvent{T: 2, Kind: core.TraceDelivered}) // silently skipped after failure
	if errf() == nil {
		t.Fatal("write failure not reported")
	}
}
