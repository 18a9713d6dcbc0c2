package tone

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefaultSchemeValid(t *testing.T) {
	if err := DefaultScheme().Validate(); err != nil {
		t.Fatalf("default scheme invalid: %v", err)
	}
}

// Table I of the paper: idle pulses are 1 ms every 50 ms; receive pulses
// 0.5 ms every 10 ms; collision pulses 0.5 ms, sent once (a bounded
// pattern).
func TestPaperTableIValues(t *testing.T) {
	s := DefaultScheme()
	idle := s.Pattern(Idle)
	if idle.Duration != sim.Millisecond || idle.Interval != 50*sim.Millisecond {
		t.Errorf("idle pattern = %+v", idle)
	}
	rcv := s.Pattern(Receive)
	if rcv.Duration != 500*sim.Microsecond || rcv.Interval != 10*sim.Millisecond {
		t.Errorf("receive pattern = %+v", rcv)
	}
	col := s.Pattern(Collision)
	if col.Duration != 500*sim.Microsecond || col.Repeat == 0 {
		t.Errorf("collision pattern = %+v", col)
	}
}

func TestStateNames(t *testing.T) {
	want := map[State]string{Idle: "idle", Receive: "receive", Transmit: "transmit", Collision: "collision"}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), name)
		}
	}
	if numStates != 4 {
		t.Fatalf("%d tone states, want 4", numStates)
	}
}

// Property: with tolerance at MinDecodeTolerance, no two states can both
// claim one measured interval (unambiguous decoding).
func TestDecodeUnambiguous(t *testing.T) {
	s := DefaultScheme()
	tol := s.MinDecodeTolerance()
	check := func(usRaw uint32) bool {
		interval := sim.Time(usRaw % 100000) // 0..100 ms
		matches := 0
		for st := State(0); st < numStates; st++ {
			d := interval - s.Pattern(st).Interval
			if d < 0 {
				d = -d
			}
			if d <= tol {
				matches++
			}
		}
		return matches <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadSchemes(t *testing.T) {
	mutations := []func(*Scheme){
		func(s *Scheme) { s.patterns[Idle].Duration = 0 },
		func(s *Scheme) { s.patterns[Idle].Interval = s.patterns[Idle].Duration },
		func(s *Scheme) { s.patterns[Receive].Interval = s.patterns[Transmit].Interval },
		func(s *Scheme) { s.patterns[Collision].Repeat = -1 },
	}
	for i, mutate := range mutations {
		s := DefaultScheme()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// §III.B claims the tone channel is energy-efficient because the idle
// broadcast has a tiny duty cycle: 1 ms per 50 ms = 2%.
func TestIdleDutyCycle(t *testing.T) {
	s := DefaultScheme()
	if dc := s.DutyCycle(Idle); math.Abs(dc-0.02) > 1e-12 {
		t.Fatalf("idle duty cycle = %v, want 0.02", dc)
	}
	if dc := s.DutyCycle(Receive); math.Abs(dc-0.05) > 1e-12 {
		t.Fatalf("receive duty cycle = %v, want 0.05", dc)
	}
}

func TestPatternsOrder(t *testing.T) {
	pats := DefaultScheme().Patterns()
	if len(pats) != 4 {
		t.Fatalf("Patterns() has %d entries", len(pats))
	}
	for i, p := range pats {
		if p.State != State(i) {
			t.Fatalf("pattern %d is for state %v", i, p.State)
		}
	}
}

func TestCSIEstimatorIdentityByDefault(t *testing.T) {
	var e CSIEstimator
	for _, v := range []float64{-10, 0, 3.7, 25} {
		if got := e.Estimate(v); got != v {
			t.Errorf("default estimator changed %v to %v", v, got)
		}
	}
}

func TestCSIEstimatorOffsetAndQuantize(t *testing.T) {
	e := CSIEstimator{OffsetDB: 2, QuantizeDB: 0.5}
	if got := e.Estimate(10.13); math.Abs(got-12.0) > 1e-12 {
		t.Errorf("Estimate(10.13) = %v, want 12.0", got)
	}
	if got := e.Estimate(10.38); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("Estimate(10.38) = %v, want 12.5", got)
	}
	// Negative values quantize symmetrically.
	en := CSIEstimator{QuantizeDB: 1}
	if got := en.Estimate(-2.6); math.Abs(got-(-3)) > 1e-12 {
		t.Errorf("Estimate(-2.6) = %v, want -3", got)
	}
}

// Property: quantization error is bounded by half a step.
func TestCSIQuantizationBounded(t *testing.T) {
	e := CSIEstimator{QuantizeDB: 0.25}
	check := func(v float64) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e6 {
			return true
		}
		return math.Abs(e.Estimate(v)-v) <= 0.125+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
