package caem

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// goldenRun is one run whose JSON Result TestGoldenResults pins.
type goldenRun struct {
	name string
	run  func() (Result, error)
}

// goldenRuns is the fixed set of pinned runs: the three protocols on the
// Table II world, one dense generated timeline with base-station
// forwarding, and a saturated dense world with forwarding under all
// three protocols. In the saturated world many arrivals fall due in the
// same microsecond as a protocol event, so its digests see the engine's
// same-time order.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var runs []goldenRun
	for _, p := range Protocols() {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.DurationSeconds = 60
		runs = append(runs, goldenRun{"table2/" + p.String() + "/60s", func() (Result, error) { return Run(cfg) }})
	}
	forwarding := func(seed uint64) (Scenario, Config) {
		scs, err := GenerateScenarios("dense", 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ScenarioConfig(scs[0])
		if err != nil {
			t.Fatal(err)
		}
		cfg.DurationSeconds = 120
		cfg.Advanced.BaseStationForwarding = true
		return scs[0], cfg
	}
	sc1, cfg1 := forwarding(1)
	runs = append(runs, goldenRun{sc1.Name + "/forwarding/120s", func() (Result, error) { return RunScenario(sc1, cfg1) }})
	sc2, base := forwarding(2)
	for _, p := range Protocols() {
		cfg := base
		cfg.Protocol = p
		runs = append(runs, goldenRun{sc2.Name + "/" + p.String() + "/forwarding/120s", func() (Result, error) { return RunScenario(sc2, cfg) }})
	}
	return runs
}

// goldenText renders one "<sha256 of the JSON Result>  <run name>" line
// per golden run.
func goldenText(t *testing.T) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# sha256 of the JSON Result per run (amd64, ModelVersion %d).\n", ModelVersion)
	sb.WriteString("# Regenerate: go test ./caem -run TestGoldenResults -update\n")
	for _, g := range goldenRuns(t) {
		res, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sum := sha256.Sum256(blob)
		fmt.Fprintf(&sb, "%s  %s\n", hex.EncodeToString(sum[:]), g.name)
	}
	return sb.String()
}

// TestGoldenResults pins the exact Results of a small fixed set of runs.
// Any change to the model, the event engine's execution order, or the
// Result encoding shows up here as a digest mismatch. An intentional
// change bumps ModelVersion, which the golden's header names, and
// regenerates the golden with -update. The digests are pinned
// for amd64 only: Go may fuse multiply-adds on other architectures
// (arm64 among them), which changes floating-point rounding.
func TestGoldenResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden Results are pinned for amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	goldenPath := filepath.Join("testdata", "results.golden")
	got := goldenText(t)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Results drifted from %s; regenerate with -update only if the model change is intentional.\n--- got\n%s--- want\n%s",
			goldenPath, got, want)
	}
}
