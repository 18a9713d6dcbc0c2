package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefaultDeviceModelValid(t *testing.T) {
	if err := DefaultDeviceModel().Validate(); err != nil {
		t.Fatalf("default device model invalid: %v", err)
	}
}

func TestDeviceModelValidateRejects(t *testing.T) {
	cases := []func(*DeviceModel){
		func(d *DeviceModel) { d.DataTxPower = -1 },
		func(d *DeviceModel) { d.ToneRxPower = -0.001 },
		func(d *DeviceModel) { d.DataStartupTime = -1 },
		func(d *DeviceModel) { d.DataSleepPower = 1; d.DataIdleListenPower = 0.5 },
	}
	for i, mutate := range cases {
		d := DefaultDeviceModel()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPowerOrdering(t *testing.T) {
	d := DefaultDeviceModel()
	if !(d.DataTxPower > d.DataRxPower && d.DataRxPower > d.DataIdleListenPower && d.DataIdleListenPower > d.DataSleepPower) {
		t.Fatal("data radio power states not ordered tx > rx > idle-listen > sleep")
	}
	if d.ToneRxPower >= d.DataRxPower {
		t.Fatal("tone monitoring must be far cheaper than data reception (wake-up-receiver class)")
	}
}

func TestStartupEnergy(t *testing.T) {
	d := DefaultDeviceModel()
	want := d.DataStartupPower * d.DataStartupTime.Seconds()
	if got := d.StartupEnergy(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("StartupEnergy = %v, want %v", got, want)
	}
}

func TestBatteryDraw(t *testing.T) {
	b := NewBattery(10)
	if b.initial != 10 || b.Remaining() != 10 || b.Consumed() != 0 {
		t.Fatal("fresh battery state wrong")
	}
	if !b.Draw(DataTx, 4) {
		t.Fatal("draw within budget returned false")
	}
	if b.Remaining() != 6 || b.Consumed() != 4 {
		t.Fatalf("after draw: remaining %v consumed %v", b.Remaining(), b.Consumed())
	}
	if b.ConsumedBy(DataTx) != 4 {
		t.Fatalf("ConsumedBy(DataTx) = %v", b.ConsumedBy(DataTx))
	}
}

func TestBatteryExhaustion(t *testing.T) {
	b := NewBattery(1)
	if b.Draw(DataTx, 2) {
		t.Fatal("overdraft returned true")
	}
	if !b.Dead() {
		t.Fatal("battery not dead after overdraft")
	}
	if b.Remaining() != 0 {
		t.Fatalf("remaining %v after death, want 0", b.Remaining())
	}
	// The truncated draw is still accounted (the whole remaining Joule).
	if b.ConsumedBy(DataTx) != 1 {
		t.Fatalf("ConsumedBy = %v, want 1", b.ConsumedBy(DataTx))
	}
	// Draws on a dead battery are no-ops.
	if b.Draw(DataRx, 0.5) {
		t.Fatal("draw on dead battery returned true")
	}
	if b.ConsumedBy(DataRx) != 0 {
		t.Fatal("dead battery accumulated energy")
	}
}

func TestExactExhaustionIsDead(t *testing.T) {
	b := NewBattery(1)
	if b.Draw(Baseline, 1) {
		t.Fatal("draw of exactly the remaining energy should report death")
	}
	if !b.Dead() {
		t.Fatal("battery should be dead at exactly zero")
	}
}

func TestDrawPower(t *testing.T) {
	b := NewBattery(10)
	b.DrawPower(DataRx, 0.5, 2*sim.Second)
	if math.Abs(b.ConsumedBy(DataRx)-1.0) > 1e-12 {
		t.Fatalf("DrawPower consumed %v, want 1", b.ConsumedBy(DataRx))
	}
}

func TestNegativeDrawPanics(t *testing.T) {
	b := NewBattery(1)
	defer func() {
		if recover() == nil {
			t.Error("negative draw did not panic")
		}
	}()
	b.Draw(DataTx, -1)
}

func TestNegativeDurationPanics(t *testing.T) {
	b := NewBattery(1)
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	b.DrawPower(DataTx, 1, -sim.Second)
}

func TestNonPositiveBatteryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBattery(0) did not panic")
		}
	}()
	NewBattery(0)
}

// The per-cause totals are exactly the draws made against each cause,
// untouched causes read zero, and the totals sum to the consumption.
func TestConsumedByComplete(t *testing.T) {
	b := NewBattery(100)
	b.Draw(DataTx, 5)
	b.Draw(DataRx, 10)
	b.Draw(Baseline, 1)
	want := map[Cause]float64{DataTx: 5, DataRx: 10, Baseline: 1}
	var sum float64
	for _, c := range Causes() {
		if got := b.ConsumedBy(c); got != want[c] {
			t.Errorf("ConsumedBy(%v) = %v, want %v", c, got, want[c])
		}
		sum += b.ConsumedBy(c)
	}
	if math.Abs(sum-b.Consumed()) > 1e-12 {
		t.Fatalf("per-cause totals sum to %v, consumed %v", sum, b.Consumed())
	}
}

func TestCauseNames(t *testing.T) {
	for _, c := range Causes() {
		if c.String() == "" || c.String()[0] == 'C' { // "Cause(n)" fallback
			t.Errorf("cause %d has no name", int(c))
		}
	}
}

// Property: for any sequence of draws, initial = remaining + consumed and
// consumed equals the sum over causes (conservation of energy).
func TestConservationProperty(t *testing.T) {
	check := func(draws []float64) bool {
		b := NewBattery(1000)
		for i, d := range draws {
			amt := math.Abs(d)
			if math.IsNaN(amt) || math.IsInf(amt, 0) {
				continue
			}
			amt = math.Mod(amt, 50)
			b.Draw(Cause(i%int(numCauses)), amt)
		}
		var byCause float64
		for _, c := range Causes() {
			byCause += b.ConsumedBy(c)
		}
		return math.Abs(b.Remaining()+b.Consumed()-1000) < 1e-9 &&
			math.Abs(byCause-b.Consumed()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
