package phy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefault4ModeShape(t *testing.T) {
	tab := Default4Mode()
	if tab.Len() != 4 {
		t.Fatalf("mode count = %d, want 4", tab.Len())
	}
	wantBps := []float64{250e3, 450e3, 1e6, 2e6}
	for i, m := range tab.modes {
		if m.Index != i {
			t.Errorf("mode %d has Index %d", i, m.Index)
		}
		if m.ThroughputBps != wantBps[i] {
			t.Errorf("mode %d throughput = %v, want %v", i, m.ThroughputBps, wantBps[i])
		}
	}
	if tab.Lowest().ThroughputBps != 250e3 || tab.Highest().ThroughputBps != 2e6 {
		t.Error("Lowest/Highest wrong")
	}
}

func TestThresholdsStrictlyIncreasing(t *testing.T) {
	tab := Default4Mode()
	for i := 1; i < tab.Len(); i++ {
		if tab.Mode(i).ThresholdSNRdB <= tab.Mode(i-1).ThresholdSNRdB {
			t.Fatalf("threshold not increasing at class %d", i)
		}
		if tab.Mode(i).ThroughputBps <= tab.Mode(i-1).ThroughputBps {
			t.Fatalf("throughput not increasing at class %d", i)
		}
	}
}

func TestAirtime(t *testing.T) {
	tab := Default4Mode()
	// 2000 bits at 2 Mbps = 1 ms; at 250 kbps = 8 ms.
	if got := tab.Highest().Airtime(2000); got != sim.Millisecond {
		t.Fatalf("airtime at 2 Mbps = %v, want 1 ms", got)
	}
	if got := tab.Lowest().Airtime(2000); got != 8*sim.Millisecond {
		t.Fatalf("airtime at 250 kbps = %v, want 8 ms", got)
	}
}

func TestAirtimePanicsOnBadPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Airtime(0) did not panic")
		}
	}()
	Default4Mode().Highest().Airtime(0)
}

func TestCodedBits(t *testing.T) {
	m := Mode{CodeRate: 0.5, ThroughputBps: 1, Modulation: BPSK}
	if got := m.CodedBits(1000); got != 2000 {
		t.Fatalf("CodedBits(1000) at rate 1/2 = %d, want 2000", got)
	}
	m.CodeRate = 0.75
	if got := m.CodedBits(900); got != 1200 {
		t.Fatalf("CodedBits(900) at rate 3/4 = %d, want 1200", got)
	}
}

func TestQFunction(t *testing.T) {
	// Known values: Q(0)=0.5, Q(1)~0.1587, Q(3)~0.00135.
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.158655},
		{3, 0.001350},
	}
	for _, c := range cases {
		if got := qfunc(c.x); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("Q(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// Symmetry: Q(-x) = 1 - Q(x).
	if got := qfunc(-1) + qfunc(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("Q(-1)+Q(1) = %v, want 1", got)
	}
}

func TestBERMonotoneInSNR(t *testing.T) {
	for _, m := range Default4Mode().modes {
		prev := 1.0
		for snr := -10.0; snr <= 40; snr += 0.5 {
			ber := m.BitErrorRate(snr)
			if ber < 0 || ber > 0.5 {
				t.Fatalf("%s: BER(%v) = %v outside [0, 0.5]", m.Name, snr, ber)
			}
			if ber > prev+1e-15 {
				t.Fatalf("%s: BER increased with SNR at %v dB", m.Name, snr)
			}
			prev = ber
		}
	}
}

// Each mode must meet a respectable BER at its own admission threshold —
// operating a mode where the table allows it must be safe.
func TestBERAcceptableAtThreshold(t *testing.T) {
	for _, m := range Default4Mode().modes {
		ber := m.BitErrorRate(m.ThresholdSNRdB)
		if ber > 1e-5 {
			t.Errorf("%s: BER at threshold = %v, want <= 1e-5", m.Name, ber)
		}
	}
}

// Below its threshold by a few dB, a mode should be visibly unreliable for
// 2 Kbit packets — this is what punishes pure LEACH for ignoring the CSI.
func TestPERPunishesBelowThreshold(t *testing.T) {
	m := Default4Mode().Lowest()
	per := m.PacketErrorProb(m.ThresholdSNRdB-4, 2000)
	if per < 0.05 {
		t.Errorf("PER 4 dB below lowest threshold = %v, want noticeable (>= 0.05)", per)
	}
	perAt := m.PacketErrorProb(m.ThresholdSNRdB, 2000)
	if perAt > 0.02 {
		t.Errorf("PER at threshold = %v, want small", perAt)
	}
}

func TestPERBoundsAndMonotone(t *testing.T) {
	m := Default4Mode().Mode(2)
	prev := 1.0
	for snr := -20.0; snr <= 40; snr += 1 {
		per := m.PacketErrorProb(snr, 2000)
		if per < 0 || per > 1 {
			t.Fatalf("PER(%v) = %v outside [0,1]", snr, per)
		}
		if per > prev+1e-12 {
			t.Fatalf("PER increased with SNR at %v", snr)
		}
		prev = per
	}
}

func TestPickMode(t *testing.T) {
	tab := Default4Mode()
	cases := []struct {
		snr    float64
		class  int
		usable bool
	}{
		{-3, 0, false},
		{4.9, 0, false},
		{5, 0, true},
		{7.9, 0, true},
		{8, 1, true},
		{12, 2, true},
		{15.9, 2, true},
		{16, 3, true},
		{30, 3, true},
	}
	for _, c := range cases {
		m, ok := tab.PickMode(c.snr)
		if ok != c.usable {
			t.Errorf("PickMode(%v): usable = %v, want %v", c.snr, ok, c.usable)
		}
		if ok && m.Index != c.class {
			t.Errorf("PickMode(%v) class = %d, want %d", c.snr, m.Index, c.class)
		}
	}
}

// Property: PickMode is monotone — more SNR never selects a slower mode.
func TestPickModeMonotone(t *testing.T) {
	tab := Default4Mode()
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		ml, okl := tab.PickMode(lo)
		mh, okh := tab.PickMode(hi)
		if okl && !okh {
			return false
		}
		if okl && okh {
			return mh.Index >= ml.Index
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTableRejectsBadConfigs(t *testing.T) {
	good := Mode{Name: "a", Modulation: BPSK, CodeRate: 0.5, ThroughputBps: 1e5, ThresholdSNRdB: 3}
	cases := [][]Mode{
		nil, // empty
		{good, {Name: "b", Modulation: BPSK, CodeRate: 0.5, ThroughputBps: 2e5, ThresholdSNRdB: 3}},  // duplicate threshold
		{good, {Name: "b", Modulation: BPSK, CodeRate: 0.5, ThroughputBps: 5e4, ThresholdSNRdB: 10}}, // slower at higher threshold
		{{Name: "z", Modulation: BPSK, CodeRate: 0.5, ThroughputBps: 0, ThresholdSNRdB: 1}},          // zero throughput
		{{Name: "z", Modulation: BPSK, CodeRate: 1.5, ThroughputBps: 1e5, ThresholdSNRdB: 1}},        // bad code rate
	}
	for i, ms := range cases {
		if _, err := NewTable(ms); err == nil {
			t.Errorf("case %d: NewTable accepted invalid modes", i)
		}
	}
}

func TestNewTableSortsByThreshold(t *testing.T) {
	ms := []Mode{
		{Name: "fast", Modulation: QAM16, CodeRate: 0.75, ThroughputBps: 2e6, ThresholdSNRdB: 16},
		{Name: "slow", Modulation: BPSK, CodeRate: 0.5, ThroughputBps: 250e3, ThresholdSNRdB: 5},
	}
	tab, err := NewTable(ms)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Mode(0).Name != "slow" || tab.Mode(1).Name != "fast" {
		t.Fatal("table not sorted ascending by threshold")
	}
}

func TestModulationBits(t *testing.T) {
	if BPSK.BitsPerSymbol() != 1 || QPSK.BitsPerSymbol() != 2 || QAM16.BitsPerSymbol() != 4 {
		t.Fatal("BitsPerSymbol wrong")
	}
	if BPSK.String() != "BPSK" || QAM16.String() != "16-QAM" {
		t.Fatal("modulation names wrong")
	}
}

func TestCodecEnergy(t *testing.T) {
	c := DefaultCodecEnergy()
	low := Default4Mode().Lowest()   // rate 1/2: 2000 redundancy bits per 2000-bit payload
	high := Default4Mode().Highest() // rate 3/4: ~667 redundancy bits
	if e := c.EncodeEnergy(low, 2000); math.Abs(e-2000*c.EncodeJPerRedundantBit) > 1e-18 {
		t.Errorf("encode energy at rate 1/2 = %v", e)
	}
	if c.EncodeEnergy(low, 2000) <= c.EncodeEnergy(high, 2000) {
		t.Error("stronger code should cost more encode energy")
	}
	if c.DecodeEnergy(low, 2000) <= c.EncodeEnergy(low, 2000) {
		t.Error("decoding should cost more than encoding")
	}
}

// Energy-per-bit sanity: sending a packet at a higher class must cost less
// radio energy (shorter airtime at a given radiated power), the core
// premise of the paper.
func TestHigherModeCheaperAirtime(t *testing.T) {
	tab := Default4Mode()
	for i := 1; i < tab.Len(); i++ {
		if tab.Mode(i).Airtime(2000) >= tab.Mode(i-1).Airtime(2000) {
			t.Fatalf("class %d airtime not shorter than class %d", i, i-1)
		}
	}
}

func BenchmarkPickMode(b *testing.B) {
	tab := Default4Mode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tab.PickMode(float64(i % 30))
	}
}

func BenchmarkPacketErrorProb(b *testing.B) {
	m := Default4Mode().Mode(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.PacketErrorProb(float64(i%25), 2000)
	}
}

// PacketErrorBound bounds the error probability over every CSI a mode
// admits: for each mode of the paper's table and payloads from 1 to
// 16,000 bits, no point among the first 1,000 float64 values from the
// threshold up, or on a 1e-4 dB grid over the 60 dB above it, exceeds the
// bound. The bound also stays within 10% of the value at the threshold,
// so a draw above it is the common case for an admitted packet.
func TestPacketErrorBoundHolds(t *testing.T) {
	for _, m := range Default4Mode().modes {
		for _, bits := range []int{1, 64, 2000, 16000} {
			bound := m.PacketErrorBound(bits)
			atThreshold := m.PacketErrorProb(m.ThresholdSNRdB, bits)
			if bound > 1.1*atThreshold {
				t.Errorf("%s, %d bits: bound %v more than 10%% above %v at the threshold", m.Name, bits, bound, atThreshold)
			}
			check := func(snr float64) {
				if p := m.PacketErrorProb(snr, bits); p > bound {
					t.Fatalf("%s, %d bits: PacketErrorProb(%v) = %v exceeds bound %v", m.Name, bits, snr, p, bound)
				}
			}
			snr := m.ThresholdSNRdB
			for i := 0; i < 1000; i++ {
				check(snr)
				snr = math.Nextafter(snr, math.Inf(1))
			}
			for i := 0; i <= 600000; i++ {
				check(m.ThresholdSNRdB + float64(i)*1e-4)
			}
		}
	}
}
