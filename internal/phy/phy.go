// Package phy models the adaptive physical layer (ABICM, §II.B of the
// paper): four modulation/coding modes with distinct effective throughputs
// (2 Mbps, 1 Mbps, 450 kbps, 250 kbps), burst-by-burst mode selection from
// the measured CSI, residual packet error probability, per-packet airtime,
// and the FEC encode/decode computation energy the paper charges to the
// battery (§I, consumption source 1).
//
// The paper uses ABICM "for illustration only"; what the scheduling layer
// needs from the PHY is (a) the airtime of a packet at each mode, (b) the
// SNR threshold above which each mode sustains the required BER, and
// (c) a residual error model. We therefore implement the standard
// uncoded-BER curves for BPSK/QPSK/16-QAM with per-mode coding gains
// rather than simulating the coded-modulation trellis itself; DESIGN.md §4
// records this substitution.
package phy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Modulation enumerates the constellations used by the four ABICM modes.
type Modulation int

const (
	BPSK Modulation = iota
	QPSK
	QAM16
)

func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// BitsPerSymbol returns log2 of the constellation size.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	default:
		panic(fmt.Sprintf("phy: unknown modulation %d", int(m)))
	}
}

// Mode is one ABICM configuration: a constellation plus an error-control
// code, yielding an effective information throughput and an SNR threshold
// above which the target BER is met.
type Mode struct {
	// Index is the mode's class, 0 = most robust / slowest.
	Index int
	// Name is a human-readable label.
	Name string
	// Modulation is the constellation.
	Modulation Modulation
	// CodeRate is the FEC rate (information bits / coded bits).
	CodeRate float64
	// ThroughputBps is the effective information throughput after coding
	// and modulation (what the paper's "2 Mbps, 1 Mbps, 450 kbps,
	// 250 kbps" refer to).
	ThroughputBps float64
	// ThresholdSNRdB is the minimum CSI at which the transmitter selects
	// this mode.
	ThresholdSNRdB float64
	// CodingGainDB shifts the uncoded BER curve to model the FEC.
	CodingGainDB float64
}

// Airtime returns how long the data radio is on to carry an
// information payload of the given size at this mode. This is the paper's
// central energy quantity: lower modes keep the radio on longer per useful
// bit (consumption source 2 in §I).
func (m Mode) Airtime(payloadBits int) sim.Time {
	if payloadBits <= 0 {
		panic(fmt.Sprintf("phy: Airtime with payloadBits=%d", payloadBits))
	}
	return sim.FromSeconds(float64(payloadBits) / m.ThroughputBps)
}

// CodedBits returns the on-air bit count for a payload, i.e. payload
// inflated by the FEC redundancy.
func (m Mode) CodedBits(payloadBits int) int {
	return int(math.Ceil(float64(payloadBits) / m.CodeRate))
}

// qfunc is the Gaussian tail probability Q(x) = P(N(0,1) > x), computed
// from the complementary error function.
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BitErrorRate returns the post-decoding bit error probability of the mode
// at the given SNR (per-symbol, dB). The uncoded curves are the textbook
// expressions; the coding gain shifts the effective SNR.
func (m Mode) BitErrorRate(snrDB float64) float64 {
	effSNR := math.Pow(10, (snrDB+m.CodingGainDB)/10)
	bps := float64(m.Modulation.BitsPerSymbol())
	// Per-bit SNR for Gray-mapped constellations.
	ebn0 := effSNR / bps
	var ber float64
	switch m.Modulation {
	case BPSK:
		ber = qfunc(math.Sqrt(2 * ebn0))
	case QPSK:
		// QPSK has the same per-bit error rate as BPSK.
		ber = qfunc(math.Sqrt(2 * ebn0))
	case QAM16:
		// Nearest-neighbour approximation for Gray-mapped square 16-QAM.
		ber = 0.75 * qfunc(math.Sqrt(4.0/5.0*ebn0))
	default:
		panic("phy: unknown modulation")
	}
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// PacketErrorProb returns the probability that a packet of the given
// payload size is corrupted when sent at this mode and SNR, assuming
// independent residual bit errors after decoding.
func (m Mode) PacketErrorProb(snrDB float64, payloadBits int) float64 {
	ber := m.BitErrorRate(snrDB)
	if ber <= 0 {
		return 0
	}
	// 1 - (1-ber)^L via log for numerical stability at tiny ber.
	return -math.Expm1(float64(payloadBits) * math.Log1p(-ber))
}

// boundMarginDB is how far below the threshold PacketErrorBound
// evaluates the error model: enough to cover the rounding of the
// erfc/exp tower, which could otherwise let a CSI just above the
// threshold read a hair above the value at it.
const boundMarginDB = 0.01

// PacketErrorBound returns an upper bound on PacketErrorProb(snrDB,
// payloadBits) over every snrDB at or above the mode's threshold, i.e.
// every CSI that PickMode maps to this mode: the probability 0.01 dB
// below the threshold. The error probability falls as the SNR rises, so
// a uniform draw at or above the bound means the packet survives without
// evaluating the error model.
func (m Mode) PacketErrorBound(payloadBits int) float64 {
	return m.PacketErrorProb(m.ThresholdSNRdB-boundMarginDB, payloadBits)
}

// Table is the ordered set of ABICM modes, ascending by threshold (and
// therefore by throughput).
type Table struct {
	modes []Mode
}

// Default4Mode returns the paper's 4-mode configuration. Thresholds follow
// DESIGN.md §4 (the scan loses the exact table): 5 / 8 / 12 / 16 dB for
// 250 k / 450 k / 1 M / 2 M. Coding gains are chosen so each mode achieves
// BER ≤ 1e-5 at its own threshold — i.e. operating a mode at its admission
// SNR is safe, and the residual packet error probability decays as the
// channel exceeds the threshold.
func Default4Mode() Table {
	modes := []Mode{
		{Index: 0, Name: "250kbps/BPSK r1/2", Modulation: BPSK, CodeRate: 0.5, ThroughputBps: 250e3, ThresholdSNRdB: 5, CodingGainDB: 6.5},
		{Index: 1, Name: "450kbps/QPSK r1/2", Modulation: QPSK, CodeRate: 0.5, ThroughputBps: 450e3, ThresholdSNRdB: 8, CodingGainDB: 6.5},
		{Index: 2, Name: "1Mbps/QPSK r3/4", Modulation: QPSK, CodeRate: 0.75, ThroughputBps: 1e6, ThresholdSNRdB: 12, CodingGainDB: 4.5},
		{Index: 3, Name: "2Mbps/16QAM r3/4", Modulation: QAM16, CodeRate: 0.75, ThroughputBps: 2e6, ThresholdSNRdB: 16, CodingGainDB: 5.0},
	}
	t, err := NewTable(modes)
	if err != nil {
		panic("phy: default table invalid: " + err.Error())
	}
	return t
}

// NewTable validates and builds a mode table. Modes must have strictly
// increasing thresholds and throughputs: a higher class must be both
// faster and more demanding, or mode selection is ill-defined.
func NewTable(modes []Mode) (Table, error) {
	if len(modes) == 0 {
		return Table{}, fmt.Errorf("phy: empty mode table")
	}
	ms := make([]Mode, len(modes))
	copy(ms, modes)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ThresholdSNRdB < ms[j].ThresholdSNRdB })
	for i := range ms {
		m := &ms[i]
		if m.ThroughputBps <= 0 {
			return Table{}, fmt.Errorf("phy: mode %q has non-positive throughput", m.Name)
		}
		if m.CodeRate <= 0 || m.CodeRate > 1 {
			return Table{}, fmt.Errorf("phy: mode %q has code rate %v outside (0, 1]", m.Name, m.CodeRate)
		}
		m.Index = i
		if i > 0 {
			if ms[i].ThresholdSNRdB == ms[i-1].ThresholdSNRdB {
				return Table{}, fmt.Errorf("phy: modes %q and %q share threshold %v dB", ms[i-1].Name, ms[i].Name, ms[i].ThresholdSNRdB)
			}
			if ms[i].ThroughputBps <= ms[i-1].ThroughputBps {
				return Table{}, fmt.Errorf("phy: mode %q not faster than lower-threshold mode %q", ms[i].Name, ms[i-1].Name)
			}
		}
	}
	return Table{modes: ms}, nil
}

// Len returns the number of modes (classes).
func (t Table) Len() int { return len(t.modes) }

// Mode returns the mode of the given class index.
func (t Table) Mode(i int) Mode {
	return t.modes[i]
}

// Highest returns the top class (fastest mode).
func (t Table) Highest() Mode { return t.modes[len(t.modes)-1] }

// Lowest returns class 0 (most robust mode).
func (t Table) Lowest() Mode { return t.modes[0] }

// PickMode returns the fastest mode whose threshold the given CSI
// satisfies, and ok=false if the CSI is below even the lowest class (the
// channel cannot sustain the target BER at any configuration; the paper's
// pure-LEACH baseline transmits anyway and the packet is likely lost).
func (t Table) PickMode(snrDB float64) (Mode, bool) {
	best := -1
	for i := range t.modes {
		if snrDB >= t.modes[i].ThresholdSNRdB {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		return t.modes[0], false
	}
	return t.modes[best], true
}

// ThresholdForClass returns the admission SNR of class i.
func (t Table) ThresholdForClass(i int) float64 { return t.modes[i].ThresholdSNRdB }

// CodecEnergyModel charges the battery for FEC encoding and decoding
// (consumption source 1 in §I). The cost is proportional to the number of
// redundancy bits processed: stronger codes (lower rate) at lower modes
// cost more per information bit.
type CodecEnergyModel struct {
	// EncodeJPerRedundantBit is the transmitter-side energy per FEC
	// redundancy bit. Typical microcontroller figures are a few nJ/bit;
	// the paper notes these are small next to the radio but still counts
	// them.
	EncodeJPerRedundantBit float64
	// DecodeJPerRedundantBit is the receiver-side (Viterbi-class) energy
	// per redundancy bit; decoding costs more than encoding.
	DecodeJPerRedundantBit float64
}

// DefaultCodecEnergy returns nJ-scale codec costs.
func DefaultCodecEnergy() CodecEnergyModel {
	return CodecEnergyModel{
		EncodeJPerRedundantBit: 1e-9,
		DecodeJPerRedundantBit: 5e-9,
	}
}

// EncodeEnergy returns the transmit-side codec energy for a payload at a
// mode.
func (c CodecEnergyModel) EncodeEnergy(m Mode, payloadBits int) float64 {
	red := m.CodedBits(payloadBits) - payloadBits
	return float64(red) * c.EncodeJPerRedundantBit
}

// DecodeEnergy returns the receive-side codec energy for a payload at a
// mode.
func (c CodecEnergyModel) DecodeEnergy(m Mode, payloadBits int) float64 {
	red := m.CodedBits(payloadBits) - payloadBits
	return float64(red) * c.DecodeJPerRedundantBit
}
