package caem

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/scenario/gen"
)

// GenFamily describes one preset scenario-generator family.
type GenFamily struct {
	// Name is the family identifier (the -gen spelling).
	Name string
	// Description is a one-line human summary of the family's event mix.
	Description string
}

// GeneratorFamilies lists the preset scenario-generator families.
// Between them the presets exercise every world-event category: node
// lifecycle, energy, traffic, channel weather, mobility, interference,
// and sink outages.
func GeneratorFamilies() []GenFamily {
	fams := gen.Families()
	out := make([]GenFamily, len(fams))
	for i, f := range fams {
		out[i] = GenFamily{Name: f.Name, Description: f.Description}
	}
	return out
}

// MaxCampaignScenarios is the most scenarios one campaign may name, and
// so the largest count GenerateScenarios expands. The largest campaigns
// the tests and the benchmark run name 6 generated scenarios; a
// generated dense scenario plans in up to 85 KB, so the cap bounds a
// campaign's scenarios at about 22 MB. caem-serve refuses a campaign
// past it before generating anything.
const MaxCampaignScenarios = 256

// GenerateScenarios expands a preset family into count scenarios at
// indices 0..count-1. Generation is deterministic: the same (family,
// count, seed) always returns byte-identical specs, so generated
// scenarios content-address through a CampaignStore exactly like
// curated ones — a restarted campaign regenerates the same cells and
// restores their results by hash.
//
// Generated scenarios embed the family's topology (nodes, field,
// duration) as config overrides; resolve them with ScenarioConfig like
// any other scenario. A count above MaxCampaignScenarios is refused
// before anything is allocated.
func GenerateScenarios(family string, count int, seed uint64) ([]Scenario, error) {
	if count < 1 {
		return nil, fmt.Errorf("caem: generate: count %d < 1", count)
	}
	if count > MaxCampaignScenarios {
		return nil, fmt.Errorf("caem: generate: count %d is more than the cap of %d", count, MaxCampaignScenarios)
	}
	f, err := gen.Find(family)
	if err != nil {
		return nil, fmt.Errorf("caem: %w", err)
	}
	out := make([]Scenario, count)
	for i := range out {
		sc, err := gen.Generate(f, i, seed)
		if err != nil {
			return nil, fmt.Errorf("caem: %w", err)
		}
		out[i] = sc
	}
	return out, nil
}

// ParseGenerate parses the "family:count[:seed]" spelling the CLI and
// HTTP surfaces share (seed defaults to 1) and expands it through
// GenerateScenarios.
func ParseGenerate(spec string) ([]Scenario, error) {
	family, count, seed, err := SplitGenerate(spec)
	if err != nil {
		return nil, err
	}
	return GenerateScenarios(family, count, seed)
}

// SplitGenerate parses the "family:count[:seed]" spelling without
// generating anything, so a caller can bound count first.
func SplitGenerate(spec string) (family string, count int, seed uint64, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", 0, 0, fmt.Errorf("caem: generate spec %q: want family:count[:seed]", spec)
	}
	count, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, fmt.Errorf("caem: generate spec %q: bad count: %w", spec, err)
	}
	seed = 1
	if len(parts) == 3 {
		seed, err = strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return "", 0, 0, fmt.Errorf("caem: generate spec %q: bad seed: %w", spec, err)
		}
	}
	return parts[0], count, seed, nil
}
