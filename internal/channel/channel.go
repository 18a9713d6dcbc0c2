// Package channel models the time-varying wireless link between a sensor
// and its cluster head, the physical phenomenon CAEM exploits.
//
// Following §II.B of the paper, the received SNR on a link decomposes into
// three multiplicative effects (additive in dB):
//
//	SNR(t) [dB] = SNR0 - 10·n·log10(d/d0)   (path loss)
//	            + S(t)                       (log-normal shadowing, 2-5 s scale)
//	            + 10·log10(|h(t)|²)          (Rayleigh microscopic fading, ms scale)
//
// Path loss is static for static sensors. Shadowing is a block AR(1)
// process: the dB value is constant over a block (2 s by default) and
// successive blocks are correlated, matching the paper's "macroscopic time
// scale (2-5 seconds)". Microscopic fading is flat Rayleigh fading
// generated by Clarke's sum-of-sinusoids model, which makes |h(t)|² a pure
// deterministic function of t once the oscillator phases are drawn — ideal
// for a discrete-event simulator, because the link can be sampled lazily
// at event times with no per-millisecond state updates.
//
// The paper assumes channel reciprocity (gain equal in both directions)
// and that the gain is stationary for the duration of one packet; both
// hold here by construction (the caller samples once per packet).
package channel

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Params collects the propagation constants shared by all links in a
// deployment.
type Params struct {
	// ReferenceSNRdB is the mean SNR at ReferenceDistance, absorbing
	// transmit power, antenna gains, and noise floor into one link-budget
	// constant.
	ReferenceSNRdB float64
	// ReferenceDistance is d0 in meters.
	ReferenceDistance float64
	// PathLossExponent is n in the log-distance model (2 = free space,
	// 3-4 = cluttered terrain).
	PathLossExponent float64
	// ShadowingSigmaDB is the log-normal shadowing standard deviation.
	// Zero disables shadowing.
	ShadowingSigmaDB float64
	// ShadowingBlock is the coherence block of the shadowing process
	// (the paper's "macroscopic time scale", 2-5 s).
	ShadowingBlock sim.Time
	// ShadowingCorr is the block-to-block AR(1) correlation in [0, 1).
	ShadowingCorr float64
	// DopplerHz is the maximum Doppler shift f_d of the microscopic
	// fading process. The paper assumes node speed < 1 m/s; at 916 MHz
	// that is f_d = v/λ ≲ 3 Hz, giving a coherence time on the order of
	// tens of milliseconds. Zero disables fading (|h|² = 1).
	DopplerHz float64
	// Oscillators is the number of sinusoids per quadrature component in
	// Clarke's model. 8-16 gives statistics indistinguishable from
	// Rayleigh for scheduling purposes.
	Oscillators int
	// RicianK is the Rice factor K (linear, not dB): the power ratio of
	// a line-of-sight component to the scattered components. 0 gives
	// pure Rayleigh fading (the paper's hostile-deployment assumption);
	// open-field deployments with LOS to the cluster head are better
	// described by K of 1-10. Total mean power stays normalized to 1.
	RicianK float64
	// MinDistance clamps very small distances so colocated nodes do not
	// produce absurd SNRs.
	MinDistance float64
}

// DefaultParams returns the propagation constants used throughout the
// reproduction (see DESIGN.md §4 for how they were chosen: they place the
// median link across the four ABICM mode classes).
func DefaultParams() Params {
	return Params{
		ReferenceSNRdB:    28.0,
		ReferenceDistance: 10.0,
		PathLossExponent:  3.0,
		ShadowingSigmaDB:  4.0,
		ShadowingBlock:    2 * sim.Second,
		ShadowingCorr:     0.7,
		DopplerHz:         2.0,
		Oscillators:       12,
		MinDistance:       1.0,
	}
}

// Validate reports a configuration error, or nil.
func (p Params) Validate() error {
	switch {
	case p.ReferenceDistance <= 0:
		return fmt.Errorf("channel: ReferenceDistance must be positive, got %v", p.ReferenceDistance)
	case p.PathLossExponent < 1 || p.PathLossExponent > 6:
		return fmt.Errorf("channel: PathLossExponent %v outside plausible range [1, 6]", p.PathLossExponent)
	case p.ShadowingSigmaDB < 0:
		return fmt.Errorf("channel: negative ShadowingSigmaDB %v", p.ShadowingSigmaDB)
	case p.ShadowingSigmaDB > 0 && p.ShadowingBlock <= 0:
		return fmt.Errorf("channel: shadowing enabled but ShadowingBlock %v not positive", p.ShadowingBlock)
	case p.ShadowingCorr < 0 || p.ShadowingCorr >= 1:
		return fmt.Errorf("channel: ShadowingCorr %v outside [0, 1)", p.ShadowingCorr)
	case p.DopplerHz < 0:
		return fmt.Errorf("channel: negative DopplerHz %v", p.DopplerHz)
	case p.DopplerHz > 0 && p.Oscillators < 1:
		return fmt.Errorf("channel: fading enabled but Oscillators = %d", p.Oscillators)
	case p.RicianK < 0:
		return fmt.Errorf("channel: negative RicianK %v", p.RicianK)
	case p.MinDistance < 0:
		return fmt.Errorf("channel: negative MinDistance %v", p.MinDistance)
	}
	return nil
}

// PathLossSNRdB returns the distance-dependent mean SNR component.
func (p Params) PathLossSNRdB(distance float64) float64 {
	d := distance
	if d < p.MinDistance {
		d = p.MinDistance
	}
	return p.ReferenceSNRdB - 10*p.PathLossExponent*math.Log10(d/p.ReferenceDistance)
}

// CoherenceTime returns the classical fading coherence-time estimate
// 9/(16π·f_d), or 0 if fading is disabled.
func (p Params) CoherenceTime() sim.Time {
	if p.DopplerHz <= 0 {
		return 0
	}
	return sim.FromSeconds(9 / (16 * math.Pi * p.DopplerHz))
}

// Link is the channel between one sensor/cluster-head pair. A Link is
// identified by the unordered node pair, so reciprocity holds trivially:
// both directions query the same Link.
//
// A Link owns its RNG stream by value and its oscillator records, so it
// is fully reusable: Reseed rewinds it in place to the state NewLink
// would build, recomputing the records into the existing array. It keeps
// no copy of its Params — everything a query reads is derived at Reseed —
// so the value is 296 bytes plus 72 per oscillator. The link matrices of
// pooled simulation contexts rely on this to re-materialize channels
// without allocating.
type Link struct {
	pathLossDB float64
	stream     rng.Stream

	fading    rayleigh
	shadowing shadowAR1
}

// NewLink builds the link for a node pair at the given distance. The RNG
// stream must be unique to the pair (derive it from the unordered pair),
// so that re-creating the link after a LEACH re-clustering reproduces the
// same channel realization. The stream's state is copied into the link;
// the caller's copy is not advanced by later channel queries.
func NewLink(p Params, distance float64, stream *rng.Stream) *Link {
	l := &Link{}
	l.Reseed(p, distance, stream)
	return l
}

// Reseed re-initializes the link in place for a (possibly new) parameter
// set, distance, and stream state, reusing the oscillator array. A
// reseeded link is bit-identical in behaviour to NewLink(p, distance,
// stream): the oscillator records are recomputed eagerly from the stream
// in the same draw order, and shadowing innovations continue to draw
// lazily from the link's own stream copy.
func (l *Link) Reseed(p Params, distance float64, stream *rng.Stream) {
	l.pathLossDB = p.PathLossSNRdB(distance)
	l.stream = *stream
	if p.DopplerHz > 0 {
		l.fading.reseed(p.DopplerHz, p.Oscillators, p.RicianK, p.CoherenceTime(), &l.stream)
	} else {
		l.fading.disable()
	}
	if p.ShadowingSigmaDB > 0 {
		l.shadowing.reseed(p.ShadowingSigmaDB, p.ShadowingCorr, p.ShadowingBlock)
	} else {
		l.shadowing = shadowAR1{}
	}
}

// MeanSNRdB returns the path-loss-only SNR, i.e. the long-run mean of the
// shadowed SNR in dB.
func (l *Link) MeanSNRdB() float64 { return l.pathLossDB }

// SNRdB returns the instantaneous channel state information at time t.
// t must be non-decreasing across calls only for the shadowing component
// to stay O(1); the fading component is a pure function of t (quantized
// to the channel coherence time). In practice a discrete-event simulation
// queries in non-decreasing order anyway.
func (l *Link) SNRdB(t sim.Time) float64 {
	snr := l.pathLossDB
	if l.shadowing.sigma > 0 {
		snr += l.shadowing.at(t, &l.stream)
	}
	if l.fading.doppler > 0 {
		snr += l.fading.powerGainDB(t)
	}
	return snr
}

// rayleigh is Clarke's sum-of-sinusoids flat-fading generator: the
// scattered complex gain is the sum of M plane waves with uniform arrival
// angles and phases. With RicianK > 0 a line-of-sight plane wave is
// superposed; the total E[|h|²] is normalized to 1 either way.
//
// The gain is evaluated on a grid of coherence-time blocks — the channel
// is constant within one coherence time by definition, so sampling finer
// buys nothing — and each oscillator is carried as a complex phasor
// advanced per block by one complex multiply with a precomputed rotation
// e^{jωΔ}: the steady-state path costs no trigonometry at all. Every
// checkpointEvery blocks the phasors are re-derived exactly from sin/cos,
// which both bounds the recurrence's rounding drift and makes the block
// gain a pure function of the block index (any query order — including
// re-querying a past instant — reproduces bit-identical values, because
// the state at block n is always "checkpoint ⌊n/K⌋·K plus n mod K
// recurrence steps").
type rayleigh struct {
	doppler float64
	norm    float64

	// osc holds one record per oscillator, so a seek reads and writes each
	// oscillator's state in one place; reseeding a link for a new run — or
	// a new pair in a reused matrix slot — rewrites the records without
	// touching the allocator once capacity exists.
	osc []oscillator

	// Rician LOS component: amplitude sqrt(K/(K+1)), angular Doppler of
	// the direct path, its phase, and the same phasor machinery.
	losAmp             float64
	losOmega           float64
	losCos, losSin     float64 // cos/sin of the LOS phase offset
	losRotRe, losRotIm float64 // e^{j ω_los Δ}

	// Block grid and cached state. curGainDB caches 10·log10(curGain) so
	// the many same-block queries of the SNR hot path (tone pulses every
	// few ms against coherence blocks of tens of ms) skip the logarithm,
	// and [curStart, curEnd) delimits the cached block so those queries
	// skip the integer division too.
	blockTicks       sim.Time
	blockSec         float64
	started          bool
	curBlock         int64
	curStart, curEnd sim.Time
	curGain          float64
	curGainDB        float64
	losRe, losIm     float64
}

// oscillator is one sinusoid of Clarke's model: its phasor e^{jωt} at the
// current block, the per-block rotation e^{jωΔ}, the cos/sin of its I and
// Q phase offsets, and its angular Doppler ω = 2π f_d cosθ (kept for the
// exact checkpoint recomputation).
type oscillator struct {
	re, im       float64
	rotRe, rotIm float64
	cosI, sinI   float64
	cosQ, sinQ   float64
	omega        float64
}

// checkpointEvery is the number of coherence blocks between exact
// trigonometric re-derivations of the phasor state.
const checkpointEvery = 64

// reseed (re)builds the generator in place; blockTicks is the coherence
// time the gain is quantized to (Params.CoherenceTime(), so the cache
// grid always matches the coherence estimate reported elsewhere). The
// oscillator records are rewritten into the existing array whenever the
// oscillator count fits.
func (r *rayleigh) reseed(doppler float64, m int, ricianK float64, blockTicks sim.Time, stream *rng.Stream) {
	// Scattered power is 1/(K+1); each quadrature sum has variance 1/2 of
	// it, matching the pure-Rayleigh normalization at K=0.
	scatter := 1 / (ricianK + 1)
	if blockTicks < 1 {
		blockTicks = 1
	}
	if cap(r.osc) < m {
		r.osc = make([]oscillator, m)
	}
	r.osc = r.osc[:m]
	r.doppler = doppler
	r.norm = math.Sqrt(scatter / float64(m))
	r.blockTicks = blockTicks
	r.blockSec = blockTicks.Seconds()
	r.started = false
	r.curBlock = 0
	r.curStart, r.curEnd = 0, 0
	r.curGain = 0
	r.curGainDB = 0
	r.losRe, r.losIm = 0, 0
	for k := range r.osc {
		o := &r.osc[k]
		// Random arrival angle; cosθ spreads oscillator frequencies over
		// [-f_d, f_d] with the Jakes U-shaped spectrum.
		theta := 2 * math.Pi * stream.Float64()
		o.omega = 2 * math.Pi * doppler * math.Cos(theta)
		o.sinI, o.cosI = math.Sincos(2 * math.Pi * stream.Float64())
		o.sinQ, o.cosQ = math.Sincos(2 * math.Pi * stream.Float64())
		o.rotIm, o.rotRe = math.Sincos(o.omega * r.blockSec)
	}
	r.losAmp, r.losOmega, r.losCos, r.losSin, r.losRotRe, r.losRotIm = 0, 0, 0, 0, 0, 0
	if ricianK > 0 {
		r.losAmp = math.Sqrt(ricianK / (ricianK + 1))
		losTheta := 2 * math.Pi * stream.Float64()
		r.losOmega = 2 * math.Pi * doppler * math.Cos(losTheta)
		r.losSin, r.losCos = math.Sincos(2 * math.Pi * stream.Float64())
		r.losRotIm, r.losRotRe = math.Sincos(r.losOmega * r.blockSec)
	}
}

// disable turns fading off (|h|² = 1) while keeping the oscillator array
// for a later reseed with fading enabled.
func (r *rayleigh) disable() {
	osc := r.osc
	*r = rayleigh{osc: osc}
}

// powerGainDB returns 10·log10(|h|²) for the coherence block containing
// t, from the per-block cache.
func (r *rayleigh) powerGainDB(t sim.Time) float64 {
	if r.started && t >= r.curStart && t < r.curEnd {
		return r.curGainDB
	}
	r.seek(int64(t / r.blockTicks))
	return r.curGainDB
}

// seek positions the phasor state at the given block and caches its gain.
// The invariant maintained by every path: the state at block n equals the
// exact checkpoint at c = n - n%checkpointEvery advanced by n-c recurrence
// steps, which makes the gain a pure function of n.
//
// Each oscillator is carried through all pending blocks in registers —
// re-derived from sin/cos first when the seek starts at the checkpoint —
// and then adds its term to the gain, in oscillator order. So every
// phasor sees exactly the multiplies of one block step at a time, and the
// gain is summed in the same order as from a fully stepped state.
func (r *rayleigh) seek(idx int64) {
	// Cold, backward, or past a checkpoint boundary: re-derive the
	// governing checkpoint exactly, then apply the remaining steps.
	from, exact := idx-idx%checkpointEvery, true
	if r.started && idx > r.curBlock && from <= r.curBlock {
		// Same checkpoint segment, moving forward: pure recurrence.
		from, exact = r.curBlock, false
	}
	t := float64(from) * r.blockSec
	steps := idx - from

	// cos(ωt+φ) = cos(ωt)cos(φ) - sin(ωt)sin(φ), so the stored phase
	// offsets never need re-evaluating.
	var re, im float64
	for k := range r.osc {
		o := &r.osc[k]
		pr, pi := o.re, o.im
		if exact {
			pi, pr = math.Sincos(o.omega * t)
		}
		rr, ri := o.rotRe, o.rotIm
		for s := steps; s > 0; s-- {
			pr, pi = pr*rr-pi*ri, pr*ri+pi*rr
		}
		o.re, o.im = pr, pi
		re += pr*o.cosI - pi*o.sinI
		im += pr*o.cosQ - pi*o.sinQ
	}
	re *= r.norm
	im *= r.norm
	if r.losAmp > 0 {
		lr, li := r.losRe, r.losIm
		if exact {
			li, lr = math.Sincos(r.losOmega * t)
		}
		rr, ri := r.losRotRe, r.losRotIm
		for s := steps; s > 0; s-- {
			lr, li = lr*rr-li*ri, lr*ri+li*rr
		}
		r.losRe, r.losIm = lr, li
		re += r.losAmp * (lr*r.losCos - li*r.losSin)
		im += r.losAmp * (li*r.losCos + lr*r.losSin)
	}
	g := re*re + im*im
	// Guard the log10 in SNRdB against an exact deep-fade zero.
	if g < 1e-12 {
		g = 1e-12
	}

	r.started = true
	r.curBlock = idx
	r.curStart = sim.Time(idx) * r.blockTicks
	r.curEnd = r.curStart + r.blockTicks
	r.curGain = g
	r.curGainDB = 10 * math.Log10(g)
}

// shadowAR1 is a block log-normal shadowing process: constant within a
// block, AR(1)-correlated across blocks, stationary N(0, sigma²) marginals.
// It draws its innovations from the owning Link's stream — passed in at
// query time rather than stored, so the struct stays trivially resettable
// and the Link remains a self-contained value.
type shadowAR1 struct {
	sigma float64
	corr  float64
	block sim.Time

	curIdx           int64
	curStart, curEnd sim.Time // cached block bounds: skip the division
	curVal           float64
	started          bool
	innovStd         float64
}

// reseed rewinds the process to its pre-first-draw state for the given
// parameters.
func (s *shadowAR1) reseed(sigma, corr float64, block sim.Time) {
	*s = shadowAR1{
		sigma:    sigma,
		corr:     corr,
		block:    block,
		innovStd: sigma * math.Sqrt(1-corr*corr),
	}
}

// at returns the shadowing value (dB) for the block containing t,
// advancing the AR recursion forward as needed. Queries for blocks before
// the last-advanced block return the retained value of the current block;
// the simulator never rewinds time, and within-packet queries stay within
// a block by the paper's stationarity assumption.
func (s *shadowAR1) at(t sim.Time, stream *rng.Stream) float64 {
	if s.started && t >= s.curStart && t < s.curEnd {
		return s.curVal
	}
	idx := int64(t / s.block)
	if !s.started {
		s.curIdx = idx
		s.curVal = s.sigma * stream.NormFloat64()
		s.started = true
	} else {
		for s.curIdx < idx {
			s.curVal = s.corr*s.curVal + s.innovStd*stream.NormFloat64()
			s.curIdx++
		}
	}
	// Cache the bounds of the block the retained value answers for. A
	// query behind the last-advanced block keeps the retained value (the
	// simulator never rewinds time), so the range always maps to curVal.
	s.curStart = sim.Time(s.curIdx) * s.block
	s.curEnd = s.curStart + s.block
	return s.curVal
}
