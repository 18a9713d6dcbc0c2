package analytic

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestRayleighExceedProb(t *testing.T) {
	// At threshold = mean, P = exp(-1).
	if got := RayleighExceedProb(10, 10); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("P(exceed mean) = %v, want e^-1", got)
	}
	// Far below the mean: ~1. Far above: ~0.
	if got := RayleighExceedProb(30, 0); got < 0.99 {
		t.Fatalf("P(exceed mean-30dB) = %v", got)
	}
	if got := RayleighExceedProb(0, 30); got > 1e-6 {
		t.Fatalf("P(exceed mean+30dB) = %v", got)
	}
	// Monotone in threshold.
	prev := 1.0
	for thr := -20.0; thr <= 40; thr++ {
		p := RayleighExceedProb(10, thr)
		if p > prev+1e-15 {
			t.Fatalf("exceed probability increased at %v dB", thr)
		}
		prev = p
	}
}

func TestModeOccupancySumsToOne(t *testing.T) {
	table := phy.Default4Mode()
	for _, mean := range []float64{0, 5, 10, 15, 20, 30} {
		occ, below := ModeOccupancy(mean, table)
		sum := below
		for _, p := range occ {
			sum += p
			if p < 0 || p > 1 {
				t.Fatalf("occupancy out of range at mean %v: %v", mean, occ)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("occupancies at mean %v sum to %v", mean, sum)
		}
	}
}

func TestModeOccupancyLimits(t *testing.T) {
	table := phy.Default4Mode()
	// Very strong link: (almost) always top class.
	occ, below := ModeOccupancy(40, table)
	if occ[table.Len()-1] < 0.98 || below > 0.01 {
		t.Fatalf("strong link occupancy: %v below %v", occ, below)
	}
	// Very weak link: (almost) always below all.
	_, below = ModeOccupancy(-10, table)
	if below < 0.95 {
		t.Fatalf("weak link below-all = %v", below)
	}
}

// The analytic occupancy must match the empirical distribution sampled
// from the actual fading generator — this is the cross-check that the
// channel code samples the distribution the theory assumes.
func TestOccupancyMatchesChannelSimulation(t *testing.T) {
	table := phy.Default4Mode()
	params := channel.DefaultParams()
	params.ShadowingSigmaDB = 0 // isolate Rayleigh fading
	for _, dist := range []float64{15, 25, 40} {
		link := channel.NewLink(params, dist, rng.NewSource(42).Stream("analytic", uint64(dist)))
		mean := link.MeanSNRdB()
		wantOcc, wantBelow := ModeOccupancy(mean, table)

		counts := make([]float64, table.Len())
		below := 0.0
		const n = 40000
		for i := 0; i < n; i++ {
			// Sample every 150 ms (≳ coherence time) for near-independence.
			snr := link.SNRdB(sim.Time(i) * 150 * sim.Millisecond)
			if m, ok := table.PickMode(snr); ok {
				counts[m.Index]++
			} else {
				below++
			}
		}
		for i := range counts {
			got := counts[i] / n
			if math.Abs(got-wantOcc[i]) > 0.025 {
				t.Errorf("dist %v class %d: simulated %.3f, analytic %.3f", dist, i, got, wantOcc[i])
			}
		}
		if got := below / n; math.Abs(got-wantBelow) > 0.025 {
			t.Errorf("dist %v below-all: simulated %.3f, analytic %.3f", dist, got, wantBelow)
		}
	}
}

func TestExpectedAirtimeBounds(t *testing.T) {
	table := phy.Default4Mode()
	lo := table.Highest().Airtime(2000)
	hi := table.Lowest().Airtime(2000)
	for _, mean := range []float64{0, 8, 14, 25, 40} {
		at := ExpectedAirtime(mean, table, 2000)
		if at < lo || at > hi {
			t.Fatalf("expected airtime %v outside [%v, %v] at mean %v", at, lo, hi, mean)
		}
	}
	// Monotone: better links mean shorter expected airtime.
	prev := sim.Time(math.MaxInt64)
	for mean := 0.0; mean <= 40; mean += 2 {
		at := ExpectedAirtime(mean, table, 2000)
		if at > prev {
			t.Fatalf("expected airtime increased with mean SNR at %v dB", mean)
		}
		prev = at
	}
}

func TestExpectedWaitForClass(t *testing.T) {
	poll := 50 * sim.Millisecond
	// Admission probability e^-1 at threshold = mean: wait = 50ms*(1-p)/p.
	p := math.Exp(-1)
	want := 0.05 * (1 - p) / p
	if got := ExpectedWaitForClass(16, 16, poll); math.Abs(got-want) > 1e-9 {
		t.Fatalf("wait = %v, want %v", got, want)
	}
	// Hopeless link: infinite wait.
	if !math.IsInf(ExpectedWaitForClass(-300, 16, poll), 1) {
		t.Fatal("hopeless link should wait forever")
	}
	// Excellent link: negligible wait.
	if got := ExpectedWaitForClass(40, 16, poll); got > 0.001 {
		t.Fatalf("excellent link waits %v s", got)
	}
}

func TestDeferralProbabilityComplement(t *testing.T) {
	for _, mean := range []float64{5, 12, 20} {
		d := DeferralProbability(mean, 16)
		e := RayleighExceedProb(mean, 16)
		if math.Abs(d+e-1) > 1e-12 {
			t.Fatalf("deferral + exceed = %v", d+e)
		}
	}
}

func TestExpectedHeads(t *testing.T) {
	if got := ExpectedHeads(100, 0.05); got != 5 {
		t.Fatalf("ExpectedHeads = %v, want 5", got)
	}
}

func TestClusterCapacityAndSaturation(t *testing.T) {
	// 1 ms airtime -> 1000 pkt/s channel capacity.
	if got := ClusterCapacityPktPerSec(sim.Millisecond); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("capacity = %v", got)
	}
	// 20-node cluster -> 50 pkt/s per node.
	if got := SaturationLoad(20, sim.Millisecond); math.Abs(got-50) > 1e-9 {
		t.Fatalf("saturation load = %v", got)
	}
	if !math.IsInf(SaturationLoad(0, sim.Millisecond), 1) {
		t.Fatal("empty cluster should never saturate")
	}
}

func TestEnergyPerPacketTx(t *testing.T) {
	table := phy.Default4Mode()
	// 2000 bits at 2 Mbps = 1 ms at 0.66 W = 0.66 mJ.
	got := EnergyPerPacketTx(table.Highest(), 2000, 0.66)
	if math.Abs(got-0.00066) > 1e-9 {
		t.Fatalf("energy = %v, want 0.66 mJ", got)
	}
}

// The analytic saving must reproduce the paper's headline band for the
// link qualities the deployment actually produces (median links in the
// 12-18 dB local-mean range).
func TestPredictedSavingInPaperBand(t *testing.T) {
	table := phy.Default4Mode()
	for _, mean := range []float64{12, 14, 16, 18} {
		s := PredictedSavingVsTopClass(mean, table, 2000)
		if s < 0.25 || s > 0.85 {
			t.Errorf("predicted saving at %v dB = %.2f, outside plausible band", mean, s)
		}
	}
	// Saving falls toward zero for excellent links (nothing to save).
	if s := PredictedSavingVsTopClass(40, table, 2000); s > 0.05 {
		t.Errorf("saving on excellent link = %v", s)
	}
}
