package channel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func testStream(id uint64) *rng.Stream {
	return rng.NewSource(77).Stream("chan-test", id)
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.ReferenceDistance = 0 },
		func(p *Params) { p.PathLossExponent = 0.5 },
		func(p *Params) { p.PathLossExponent = 7 },
		func(p *Params) { p.ShadowingSigmaDB = -1 },
		func(p *Params) { p.ShadowingBlock = 0 },
		func(p *Params) { p.ShadowingCorr = 1 },
		func(p *Params) { p.ShadowingCorr = -0.1 },
		func(p *Params) { p.DopplerHz = -1 },
		func(p *Params) { p.Oscillators = 0 },
		func(p *Params) { p.MinDistance = -1 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPathLossMonotoneInDistance(t *testing.T) {
	p := DefaultParams()
	prev := math.Inf(1)
	for d := 1.0; d <= 200; d += 1 {
		snr := p.PathLossSNRdB(d)
		if snr > prev+1e-12 {
			t.Fatalf("path-loss SNR increased with distance at %v m", d)
		}
		prev = snr
	}
}

func TestPathLossReferencePoint(t *testing.T) {
	p := DefaultParams()
	if got := p.PathLossSNRdB(p.ReferenceDistance); math.Abs(got-p.ReferenceSNRdB) > 1e-12 {
		t.Fatalf("SNR at reference distance = %v, want %v", got, p.ReferenceSNRdB)
	}
	// 10x the distance costs 10*n dB.
	got := p.PathLossSNRdB(p.ReferenceDistance * 10)
	want := p.ReferenceSNRdB - 10*p.PathLossExponent
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("decade slope: got %v, want %v", got, want)
	}
}

func TestMinDistanceClamp(t *testing.T) {
	p := DefaultParams()
	if got, lim := p.PathLossSNRdB(0.01), p.PathLossSNRdB(p.MinDistance); got != lim {
		t.Fatalf("tiny distance SNR %v not clamped to %v", got, lim)
	}
}

func TestCoherenceTime(t *testing.T) {
	p := DefaultParams()
	ct := p.CoherenceTime()
	want := sim.FromSeconds(9 / (16 * math.Pi * p.DopplerHz))
	if ct != want {
		t.Fatalf("CoherenceTime = %v, want %v", ct, want)
	}
	p.DopplerHz = 0
	if p.CoherenceTime() != 0 {
		t.Fatal("CoherenceTime with no fading should be 0")
	}
}

// The fading process must be normalized: time-averaged |h|^2 ~ 1, so the
// fading neither inflates nor deflates the mean link budget.
func TestFadingUnitMeanPower(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	l := NewLink(p, 10, testStream(1))
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		tm := sim.Time(i) * sim.Millisecond
		sum += gain(l, tm)
	}
	mean := sum / n
	if mean < 0.7 || mean > 1.3 {
		t.Fatalf("mean fading power gain = %v, want ~1", mean)
	}
}

// Fading must actually fade: over many coherence times the SNR should swing
// by at least several dB around its mean.
func TestFadingDynamicRange(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	l := NewLink(p, 10, testStream(2))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 20000; i++ {
		snr := l.SNRdB(sim.Time(i) * sim.Millisecond)
		lo = math.Min(lo, snr)
		hi = math.Max(hi, snr)
	}
	if hi-lo < 10 {
		t.Fatalf("fading dynamic range only %.1f dB over 20 s, want >= 10 dB", hi-lo)
	}
}

// Rayleigh depth check: the fraction of time the envelope power is below
// 10% of its mean should be around 1-exp(-0.1) ~ 9.5%.
func TestFadingDeepFadeFraction(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	l := NewLink(p, 10, testStream(3))
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if gain(l, sim.Time(i)*sim.Millisecond) < 0.1 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.04 || frac > 0.18 {
		t.Fatalf("deep-fade fraction = %v, want ~0.095 (Rayleigh)", frac)
	}
}

// Channel coherence: samples a tenth of a coherence time apart must be
// strongly correlated; samples many coherence times apart must not be.
func TestFadingTemporalCorrelation(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	ct := p.CoherenceTime()
	l := NewLink(p, 10, testStream(4))
	shortDiff, longDiff := 0.0, 0.0
	const n = 5000
	for i := 0; i < n; i++ {
		base := sim.Time(i) * 100 * sim.Millisecond
		g0 := gain(l, base)
		gs := gain(l, base+ct/10)
		gl := gain(l, base+50*ct)
		shortDiff += math.Abs(gs - g0)
		longDiff += math.Abs(gl - g0)
	}
	if shortDiff >= longDiff {
		t.Fatalf("short-lag variation (%v) not below long-lag variation (%v)", shortDiff/n, longDiff/n)
	}
}

// Determinism/purity: the fading gain is a pure function of t for a given
// link, and two links with the same stream are identical.
func TestLinkDeterminism(t *testing.T) {
	p := DefaultParams()
	a := NewLink(p, 25, testStream(5))
	b := NewLink(p, 25, testStream(5))
	for i := 0; i < 1000; i++ {
		tm := sim.Time(i) * 3 * sim.Millisecond
		if a.SNRdB(tm) != b.SNRdB(tm) {
			t.Fatalf("same-stream links diverged at %v", tm)
		}
	}
	// Re-querying the same instant returns the same value (purity).
	tm := 123456 * sim.Microsecond
	v1 := gain(a, tm)
	gain(a, tm+sim.Second)
	if v2 := gain(a, tm); v1 != v2 {
		t.Fatalf("fading gain not pure in t: %v vs %v", v1, v2)
	}
}

func TestLinksWithDifferentStreamsDiffer(t *testing.T) {
	p := DefaultParams()
	a := NewLink(p, 25, testStream(6))
	b := NewLink(p, 25, testStream(7))
	same := 0
	for i := 0; i < 100; i++ {
		tm := sim.Time(i) * 7 * sim.Millisecond
		if a.SNRdB(tm) == b.SNRdB(tm) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("independent links matched at %d/100 sample times", same)
	}
}

// Shadowing marginals: with fading off, the dB deviation around path loss
// should have roughly the configured sigma, sampled across many links.
func TestShadowingMarginalSigma(t *testing.T) {
	p := DefaultParams()
	p.DopplerHz = 0
	var sum, sumSq float64
	const n = 3000
	for i := 0; i < n; i++ {
		l := NewLink(p, 30, testStream(100+uint64(i)))
		dev := l.SNRdB(0) - l.MeanSNRdB()
		sum += dev
		sumSq += dev * dev
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.4 {
		t.Fatalf("shadowing mean = %v dB, want ~0", mean)
	}
	if math.Abs(sd-p.ShadowingSigmaDB) > 0.5 {
		t.Fatalf("shadowing sigma = %v dB, want ~%v", sd, p.ShadowingSigmaDB)
	}
}

// Shadowing is constant within a block and changes across blocks.
func TestShadowingBlockStructure(t *testing.T) {
	p := DefaultParams()
	p.DopplerHz = 0
	l := NewLink(p, 30, testStream(8))
	v0 := l.SNRdB(0)
	if v1 := l.SNRdB(p.ShadowingBlock / 2); v1 != v0 {
		t.Fatalf("shadowing changed within a block: %v vs %v", v0, v1)
	}
	changed := false
	v := v0
	for b := 1; b <= 5; b++ {
		nv := l.SNRdB(sim.Time(b)*p.ShadowingBlock + p.ShadowingBlock/2)
		if nv != v {
			changed = true
		}
		v = nv
	}
	if !changed {
		t.Fatal("shadowing never changed across 5 blocks")
	}
}

func TestDisabledComponents(t *testing.T) {
	p := DefaultParams()
	p.DopplerHz = 0
	p.ShadowingSigmaDB = 0
	l := NewLink(p, 42, testStream(9))
	want := p.PathLossSNRdB(42)
	for i := 0; i < 100; i++ {
		tm := sim.Time(i) * 100 * sim.Millisecond
		if got := l.SNRdB(tm); got != want {
			t.Fatalf("static channel moved: %v != %v at %v", got, want, tm)
		}
	}
}

// Property: SNR is always finite for any queried time.
func TestSNRAlwaysFinite(t *testing.T) {
	p := DefaultParams()
	l := NewLink(p, 60, testStream(10))
	check := func(ms uint32) bool {
		v := l.SNRdB(sim.Time(ms) * sim.Millisecond)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The block-cached fading state must make the gain a pure function of the
// query time no matter the query order: forward sweeps, backward jumps,
// and re-queries across checkpoint boundaries all reproduce bit-identical
// values.
func TestFadingPureUnderArbitraryQueryOrder(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	fresh := func() *Link { return NewLink(p, 10, testStream(30)) }

	// Reference: one strictly forward sweep.
	ref := fresh()
	const n = 400
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = gain(ref, sim.Time(i)*40*sim.Millisecond)
	}

	// Adversarial order: jump far ahead, then revisit every instant in a
	// shuffled-ish pattern that repeatedly crosses checkpoint boundaries.
	l := fresh()
	gain(l, sim.Time(n)*40*sim.Millisecond)
	for pass := 0; pass < 2; pass++ {
		for i := n - 1; i >= 0; i -= 3 {
			tm := sim.Time(i) * 40 * sim.Millisecond
			if got := gain(l, tm); got != want[i] {
				t.Fatalf("query order changed the gain at sample %d: %v != %v", i, got, want[i])
			}
		}
		for i := 0; i < n; i++ {
			tm := sim.Time(i) * 40 * sim.Millisecond
			if got := gain(l, tm); got != want[i] {
				t.Fatalf("re-query changed the gain at sample %d: %v != %v", i, got, want[i])
			}
		}
	}
}

// Samples inside one coherence time are served from the cached block gain.
func TestFadingConstantWithinCoherenceBlock(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	l := NewLink(p, 10, testStream(31))
	ct := p.CoherenceTime()
	base := 10 * ct
	g0 := gain(l, base)
	for _, off := range []sim.Time{1, ct / 7, ct / 3, ct - 1} {
		if g := gain(l, base+off); g != g0 {
			t.Fatalf("gain moved within one coherence block: %v != %v at +%v", g, g0, off)
		}
	}
	if g := gain(l, base+ct); g == g0 {
		t.Fatal("gain identical across adjacent coherence blocks (suspicious)")
	}
}

func BenchmarkSNRdB(b *testing.B) {
	l := NewLink(DefaultParams(), 30, testStream(11))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.SNRdB(sim.Time(i) * 50 * sim.Millisecond)
	}
}

// Rician fading: the LOS component must preserve unit mean power and
// shrink the fade depth relative to Rayleigh.
func TestRicianUnitMeanPower(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	p.RicianK = 5
	l := NewLink(p, 10, testStream(20))
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += gain(l, sim.Time(i)*sim.Millisecond)
	}
	mean := sum / n
	if mean < 0.7 || mean > 1.3 {
		t.Fatalf("Rician mean power gain = %v, want ~1", mean)
	}
}

func TestRicianShallowerFadesThanRayleigh(t *testing.T) {
	deepFrac := func(k float64, id uint64) float64 {
		p := DefaultParams()
		p.ShadowingSigmaDB = 0
		p.RicianK = k
		l := NewLink(p, 10, testStream(id))
		below := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if gain(l, sim.Time(i)*sim.Millisecond) < 0.1 {
				below++
			}
		}
		return float64(below) / n
	}
	rayleigh := deepFrac(0, 21)
	rician := deepFrac(8, 22)
	if rician >= rayleigh/2 {
		t.Fatalf("K=8 deep-fade fraction %v not well below Rayleigh's %v", rician, rayleigh)
	}
}

func TestRicianKValidation(t *testing.T) {
	p := DefaultParams()
	p.RicianK = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative RicianK accepted")
	}
}

// stepSeek is the reference fading kernel, rayleigh.seek as it was before
// the per-oscillator pass: every pending block is one step over all
// phasors, and the gain is summed from the stepped state afterwards. The
// fused seek must reproduce it bit for bit.
func stepSeek(r *rayleigh, idx int64) {
	c := idx - idx%checkpointEvery
	if r.started && idx > r.curBlock && c <= r.curBlock {
		for b := r.curBlock; b < idx; b++ {
			refStep(r)
		}
	} else {
		refResync(r, c)
		for b := c; b < idx; b++ {
			refStep(r)
		}
	}
	r.started = true
	r.curBlock = idx
	r.curStart = sim.Time(idx) * r.blockTicks
	r.curEnd = r.curStart + r.blockTicks
	r.curGain = refGainFromPhasors(r)
	r.curGainDB = 10 * math.Log10(r.curGain)
}

func refResync(r *rayleigh, blk int64) {
	t := float64(blk) * r.blockSec
	for k := range r.osc {
		s, c := math.Sincos(r.osc[k].omega * t)
		r.osc[k].re, r.osc[k].im = c, s
	}
	if r.losAmp > 0 {
		s, c := math.Sincos(r.losOmega * t)
		r.losRe, r.losIm = c, s
	}
}

func refStep(r *rayleigh) {
	for k := range r.osc {
		o := &r.osc[k]
		re := o.re*o.rotRe - o.im*o.rotIm
		im := o.re*o.rotIm + o.im*o.rotRe
		o.re, o.im = re, im
	}
	if r.losAmp > 0 {
		re := r.losRe*r.losRotRe - r.losIm*r.losRotIm
		im := r.losRe*r.losRotIm + r.losIm*r.losRotRe
		r.losRe, r.losIm = re, im
	}
}

func refGainFromPhasors(r *rayleigh) float64 {
	var re, im float64
	for k := range r.osc {
		o := &r.osc[k]
		re += o.re*o.cosI - o.im*o.sinI
		im += o.re*o.cosQ - o.im*o.sinQ
	}
	re *= r.norm
	im *= r.norm
	if r.losAmp > 0 {
		re += r.losAmp * (r.losRe*r.losCos - r.losIm*r.losSin)
		im += r.losAmp * (r.losIm*r.losCos + r.losRe*r.losSin)
	}
	g := re*re + im*im
	if g < 1e-12 {
		g = 1e-12
	}
	return g
}

// refQuery positions l's fading at t through the reference kernel, with
// the same per-block cache as rayleigh.powerGain.
func refQuery(l *Link, t sim.Time) *rayleigh {
	r := &l.fading
	if !r.started || t < r.curStart || t >= r.curEnd {
		stepSeek(r, int64(t/r.blockTicks))
	}
	return r
}

// refSNRdB is Link.SNRdB with its fading from the reference kernel.
func refSNRdB(l *Link, t sim.Time) float64 {
	snr := l.pathLossDB
	if l.shadowing.sigma > 0 {
		snr += l.shadowing.at(t, &l.stream)
	}
	return snr + refQuery(l, t).curGainDB
}

// The fused seek is bit-equal to the stepwise reference over query
// schedules that advance one block, jump several, cross checkpoints, go
// backward and start cold, for Rayleigh and Rician links at a slow and a
// fast Doppler and for one, 12 and 16 oscillators.
func TestFusedSeekMatchesStepwise(t *testing.T) {
	schedules := map[string][]int64{} // in thirds of a block
	var one, jump, cross, back, cold []int64
	for b := int64(0); b < 300; b++ {
		one = append(one, 3*b, 3*b+1) // every block, plus a cached re-query
	}
	for b, d := int64(0), int64(2); b < 2000; b, d = b+d, d%9+2 {
		jump = append(jump, 3*b+2)
	}
	for _, cp := range []int64{64, 128, 192, 640} {
		for _, b := range []int64{cp - 2, cp - 1, cp, cp + 1, cp + 63, cp + 64} {
			cross = append(cross, 3*b)
		}
	}
	for b := int64(400); b >= 0; b -= 7 {
		back = append(back, 3*b+1, 3*b+4)
	}
	for _, b := range []int64{100003, 100004, 100011, 100030, 100031, 100032, 99999, 100200} {
		cold = append(cold, 3*b+1)
	}
	schedules["one-block"], schedules["jump"], schedules["checkpoint"] = one, jump, cross
	schedules["backward"], schedules["cold"] = back, cold

	for _, k := range []float64{0, 1, 5} {
		for _, fd := range []float64{2, 25} {
			for _, m := range []int{1, 12, 16} {
				p := DefaultParams()
				p.RicianK, p.DopplerHz, p.Oscillators = k, fd, m
				bt := p.CoherenceTime()
				for name, sched := range schedules {
					id := uint64(40 + m)
					got, ref := NewLink(p, 35, testStream(id)), NewLink(p, 35, testStream(id))
					for i, thirds := range sched {
						tm := sim.Time(thirds) * bt / 3
						if i%2 == 0 {
							g, w := gain(got, tm), refQuery(ref, tm).curGain
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("K=%v fd=%v m=%d %s: gain(%v) = %v, stepwise %v", k, fd, m, name, tm, g, w)
							}
						}
						g, w := got.SNRdB(tm), refSNRdB(ref, tm)
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("K=%v fd=%v m=%d %s: SNRdB(%v) = %v, stepwise %v", k, fd, m, name, tm, g, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFadingSeek measures the fading kernel alone, queried every
// 50 ms. At 2 Hz a coherence block is about 90 ms, so a query that
// leaves the cached block advances one block; at 25 Hz it is about
// 7.2 ms, so every query advances about seven blocks.
func BenchmarkFadingSeek(b *testing.B) {
	for _, bc := range []struct {
		name    string
		doppler float64
	}{
		{"1block-2Hz", 2},
		{"7block-25Hz", 25},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := DefaultParams()
			p.DopplerHz = bc.doppler
			l := NewLink(p, 30, testStream(12))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gain(l, sim.Time(i)*50*sim.Millisecond)
			}
		})
	}
}

// gain returns l's fading power gain |h(t)|², from the per-block cache
// that SNRdB reads.
func gain(l *Link, t sim.Time) float64 {
	l.fading.powerGainDB(t)
	return l.fading.curGain
}
