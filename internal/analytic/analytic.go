// Package analytic provides closed-form predictions for the quantities the
// simulator measures, derived from the same modelling assumptions
// (Rayleigh fading, Poisson arrivals, the ABICM mode table). They serve
// two purposes:
//
//  1. Cross-validation: the test suites compare simulated statistics
//     against these expressions, catching bugs that self-consistent
//     simulation tests cannot (a simulator can be deterministic and
//     conserving and still sample the wrong distribution).
//  2. Back-of-envelope tooling: cmd/caem-trace and the documentation use
//     them to explain *why* the measured curves look the way they do.
//
// All SNR arguments are mean (local-mean) SNRs in dB — path loss plus
// shadowing, with Rayleigh fading as the randomness being integrated over.
package analytic

import (
	"math"

	"repro/internal/phy"
	"repro/internal/sim"
)

// dbToLin converts dB to linear power ratio.
func dbToLin(db float64) float64 { return math.Pow(10, db/10) }

// RayleighExceedProb returns P(SNR > threshold) for a Rayleigh-faded link
// with the given local-mean SNR: the instantaneous linear SNR is
// exponential with that mean, so P = exp(-thr_lin / mean_lin).
func RayleighExceedProb(meanSNRdB, thresholdDB float64) float64 {
	return math.Exp(-dbToLin(thresholdDB) / dbToLin(meanSNRdB))
}

// ModeOccupancy returns, for a Rayleigh link with the given local-mean
// SNR, the probability that the instantaneous CSI admits exactly class i
// of the table (index i of the returned slice), plus the probability that
// it is below every class (the second return). The slice and the scalar
// sum to 1.
func ModeOccupancy(meanSNRdB float64, table phy.Table) ([]float64, float64) {
	n := table.Len()
	occ := make([]float64, n)
	prev := 1.0 // P(SNR >= -inf)
	for i := 0; i < n; i++ {
		pAbove := RayleighExceedProb(meanSNRdB, table.ThresholdForClass(i))
		occ[i] = prev - pAbove // admitted exactly class i-1 band... shifted below
		prev = pAbove
	}
	// occ[i] currently holds P(threshold_{i-1} <= SNR < threshold_i) with
	// occ[0] = P(SNR < threshold_0) — re-map so occ[i] is "class i is the
	// best admissible", and below-all is the old occ[0].
	below := occ[0]
	for i := 0; i < n-1; i++ {
		occ[i] = occ[i+1]
	}
	occ[n-1] = prev // P(SNR >= top threshold)
	return occ, below
}

// ExpectedAirtime returns the mean on-air time for a payload on a Rayleigh
// link under the pure-LEACH policy (transmit immediately at the best
// admissible mode; below all thresholds, fall back to the most robust
// mode). Retransmissions are not included — this is the per-attempt
// airtime the Figure 11 baseline curve is built from.
func ExpectedAirtime(meanSNRdB float64, table phy.Table, payloadBits int) sim.Time {
	occ, below := ModeOccupancy(meanSNRdB, table)
	var t float64
	for i, p := range occ {
		t += p * table.Mode(i).Airtime(payloadBits).Seconds()
	}
	t += below * table.Lowest().Airtime(payloadBits).Seconds()
	return sim.FromSeconds(t)
}

// ExpectedWaitForClass returns the mean time a sensor waits for the
// channel to admit the given class, when it learns the CSI at periodic
// polls (the idle-tone period) and successive polls are roughly
// independent (poll interval ≳ coherence time). The wait is geometric:
// mean = interval × (1-p)/p with p the per-poll admission probability.
// p → 0 yields +Inf.
func ExpectedWaitForClass(meanSNRdB float64, thresholdDB float64, pollInterval sim.Time) float64 {
	p := RayleighExceedProb(meanSNRdB, thresholdDB)
	if p <= 0 {
		return math.Inf(1)
	}
	return pollInterval.Seconds() * (1 - p) / p
}

// DeferralProbability is the per-opportunity probability that a node
// waiting for the given class declines to transmit — the quantity behind
// the simulator's DeferralsCSI counter.
func DeferralProbability(meanSNRdB float64, thresholdDB float64) float64 {
	return 1 - RayleighExceedProb(meanSNRdB, thresholdDB)
}

// ExpectedHeads returns the expected number of cluster heads per LEACH
// round: over a full rotation epoch every node serves exactly once, so
// the long-run average is n×P per round.
func ExpectedHeads(nodes int, headFraction float64) float64 {
	return float64(nodes) * headFraction
}

// ClusterCapacityPktPerSec bounds the packet service rate of one cluster's
// shared data channel if every packet used the given airtime and the
// channel were perfectly scheduled. Offered load above this bound
// saturates the cluster (Figure 10/12's regime change).
func ClusterCapacityPktPerSec(airtime sim.Time) float64 {
	s := airtime.Seconds()
	if s <= 0 {
		return math.Inf(1)
	}
	return 1 / s
}

// SaturationLoad returns the per-node load (pkt/s) at which a cluster of
// the given size saturates, under the mean airtime given.
func SaturationLoad(clusterSize int, airtime sim.Time) float64 {
	if clusterSize <= 0 {
		return math.Inf(1)
	}
	return ClusterCapacityPktPerSec(airtime) / float64(clusterSize)
}

// EnergyPerPacketTx returns the transmitter-side radio energy for one
// packet at one mode: airtime × transmit power (no startup share).
func EnergyPerPacketTx(m phy.Mode, payloadBits int, txPowerW float64) float64 {
	return m.Airtime(payloadBits).Seconds() * txPowerW
}

// PredictedSavingVsTopClass returns the fraction of transmit energy the
// wait-for-top-class policy saves over transmit-immediately on a Rayleigh
// link — the analytic core of the paper's headline claim.
func PredictedSavingVsTopClass(meanSNRdB float64, table phy.Table, payloadBits int) float64 {
	immediate := ExpectedAirtime(meanSNRdB, table, payloadBits).Seconds()
	top := table.Highest().Airtime(payloadBits).Seconds()
	if immediate <= 0 {
		return 0
	}
	return 1 - top/immediate
}
