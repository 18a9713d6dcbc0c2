// Package energy implements the battery and radio power model of the
// sensor node.
//
// Each node has one battery and several energy consumers: the data radio
// (transmit / receive / idle-listen / sleep, plus a startup cost when
// leaving sleep), the tone radio (transmit / receive / sleep), the FEC
// codec, and an always-on MCU + sensing floor. Every draw is recorded
// against a Cause so experiments can attribute where the Joules went —
// this is how Figure 11 (energy per packet) and the ablations are built.
//
// Powers are in Watts, energies in Joules, durations in sim.Time.
package energy

import (
	"fmt"

	"repro/internal/sim"
)

// Cause labels an energy draw for accounting.
type Cause int

const (
	// DataTx is data-radio transmission airtime.
	DataTx Cause = iota
	// DataRx is data-radio reception airtime.
	DataRx
	// DataIdleListen is the data radio listening for incoming bursts
	// (cluster-head duty).
	DataIdleListen
	// DataSleep is the data radio's sleep floor.
	DataSleep
	// DataStartup is the data radio's sleep→active transition cost.
	DataStartup
	// ToneTx is tone-radio pulse transmission (cluster-head duty).
	ToneTx
	// ToneRx is tone-radio monitoring (sensor waiting/sensing).
	ToneRx
	// Codec is FEC encode/decode computation.
	Codec
	// Baseline is the MCU + sensing floor.
	Baseline
	numCauses
)

var causeNames = [...]string{
	DataTx:         "data-tx",
	DataRx:         "data-rx",
	DataIdleListen: "data-idle-listen",
	DataSleep:      "data-sleep",
	DataStartup:    "data-startup",
	ToneTx:         "tone-tx",
	ToneRx:         "tone-rx",
	Codec:          "codec",
	Baseline:       "baseline",
}

func (c Cause) String() string {
	if c >= 0 && int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// Causes returns all causes in declaration order.
func Causes() []Cause {
	out := make([]Cause, numCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// DeviceModel holds the node's power constants (Table II of the paper plus
// the DESIGN.md §4 assumptions for values the scan lost).
type DeviceModel struct {
	DataTxPower         float64  // W, data radio transmitting
	DataRxPower         float64  // W, data radio receiving
	DataIdleListenPower float64  // W, data radio idle-listening (CH duty)
	DataSleepPower      float64  // W, data radio sleeping
	DataStartupTime     sim.Time // sleep→active transition time
	DataStartupPower    float64  // W drawn during the transition

	ToneTxPower    float64 // W, tone radio emitting a pulse
	ToneRxPower    float64 // W, tone radio monitoring
	ToneSleepPower float64 // W, tone radio off

	BaselinePower float64 // W, MCU + sensing floor, always on while alive
}

// DefaultDeviceModel returns the Table II values with DESIGN.md §4 unit
// resolutions.
func DefaultDeviceModel() DeviceModel {
	return DeviceModel{
		DataTxPower:         0.66,
		DataRxPower:         0.305,
		DataIdleListenPower: 0.020,
		DataSleepPower:      3.5e-6,
		DataStartupTime:     500 * sim.Microsecond,
		DataStartupPower:    0.66,
		ToneTxPower:         0.092,
		ToneRxPower:         36e-6,
		ToneSleepPower:      1e-6,
		BaselinePower:       0.002,
	}
}

// Validate reports a configuration error, or nil.
func (d DeviceModel) Validate() error {
	type check struct {
		name string
		v    float64
	}
	for _, c := range []check{
		{"DataTxPower", d.DataTxPower},
		{"DataRxPower", d.DataRxPower},
		{"DataIdleListenPower", d.DataIdleListenPower},
		{"DataSleepPower", d.DataSleepPower},
		{"DataStartupPower", d.DataStartupPower},
		{"ToneTxPower", d.ToneTxPower},
		{"ToneRxPower", d.ToneRxPower},
		{"ToneSleepPower", d.ToneSleepPower},
		{"BaselinePower", d.BaselinePower},
	} {
		if c.v < 0 {
			return fmt.Errorf("energy: %s is negative (%v)", c.name, c.v)
		}
	}
	if d.DataStartupTime < 0 {
		return fmt.Errorf("energy: DataStartupTime is negative (%v)", d.DataStartupTime)
	}
	if d.DataSleepPower > d.DataIdleListenPower && d.DataIdleListenPower > 0 {
		return fmt.Errorf("energy: sleep power %v exceeds idle-listen power %v", d.DataSleepPower, d.DataIdleListenPower)
	}
	return nil
}

// StartupEnergy returns the energy of one sleep→active transition.
func (d DeviceModel) StartupEnergy() float64 {
	return d.DataStartupPower * d.DataStartupTime.Seconds()
}

// Battery is one node's energy ledger. A battery is Dead once the level
// reaches zero; further draws are ignored (the node has failed).
type Battery struct {
	initial   float64
	remaining float64
	recharged float64
	byCause   [numCauses]float64
	dead      bool
}

// NewBattery returns a battery holding initialJoules.
func NewBattery(initialJoules float64) *Battery {
	if initialJoules <= 0 {
		panic(fmt.Sprintf("energy: non-positive initial battery %v", initialJoules))
	}
	return &Battery{initial: initialJoules, remaining: initialJoules}
}

// Reset rewinds the battery to a fresh NewBattery(initialJoules) state
// in place: full charge, empty per-cause ledger, not dead. The reuse
// path for pooled simulation contexts.
func (b *Battery) Reset(initialJoules float64) {
	if initialJoules <= 0 {
		panic(fmt.Sprintf("energy: non-positive initial battery %v", initialJoules))
	}
	*b = Battery{initial: initialJoules, remaining: initialJoules}
}

// Remaining returns the current level in Joules (never negative).
func (b *Battery) Remaining() float64 { return b.remaining }

// Consumed returns total energy drawn so far (recharges do not reduce it).
func (b *Battery) Consumed() float64 { return b.initial + b.recharged - b.remaining }

// Recharge adds joules to the battery — an external top-up (energy
// harvesting, battery swap, field service) driven by a world event. A dead
// battery returns to service once its level becomes positive; the
// per-cause consumption ledger is unaffected. Negative amounts panic.
func (b *Battery) Recharge(joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative recharge %v", joules))
	}
	if joules == 0 {
		return
	}
	b.remaining += joules
	b.recharged += joules
	if b.dead && b.remaining > 0 {
		b.dead = false
	}
}

// ConsumedBy returns the energy attributed to a cause.
func (b *Battery) ConsumedBy(c Cause) float64 { return b.byCause[c] }

// Dead reports whether the battery is exhausted.
func (b *Battery) Dead() bool { return b.dead }

// Draw removes joules attributed to cause. If the draw
// exhausts the battery, the overdraft is truncated (the node dies
// mid-activity) and Draw returns false. Draws on a dead battery are
// no-ops returning false. Negative draws panic.
func (b *Battery) Draw(cause Cause, joules float64) bool {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative draw %v for %v", joules, cause))
	}
	if b.dead {
		return false
	}
	if joules >= b.remaining {
		b.byCause[cause] += b.remaining
		b.remaining = 0
		b.dead = true
		return false
	}
	b.remaining -= joules
	b.byCause[cause] += joules
	return true
}

// DrawPower removes power×duration attributed to cause.
func (b *Battery) DrawPower(cause Cause, powerW float64, dur sim.Time) bool {
	if dur < 0 {
		panic(fmt.Sprintf("energy: negative duration %v for %v", dur, cause))
	}
	return b.Draw(cause, powerW*dur.Seconds())
}
