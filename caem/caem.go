package caem

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Protocol selects the energy-management variant under test.
type Protocol int

const (
	// PureLEACH is the non-channel-adaptive baseline.
	PureLEACH Protocol = iota
	// Scheme1 is CAEM with adaptive threshold adjustment.
	Scheme1
	// Scheme2 is CAEM with the threshold fixed at the highest class.
	Scheme2
)

// Protocols returns all variants in presentation order (baseline first).
func Protocols() []Protocol { return []Protocol{PureLEACH, Scheme1, Scheme2} }

func (p Protocol) String() string {
	switch p {
	case PureLEACH:
		return "pure-LEACH"
	case Scheme1:
		return "CAEM-scheme1"
	case Scheme2:
		return "CAEM-scheme2"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol resolves a protocol name as used by the CLI flags and
// scenario files. It accepts the canonical String() forms and the common
// short aliases, case-insensitively: "leach" | "pure-leach" | "none",
// "scheme1" | "s1" | "adaptive", "scheme2" | "s2" | "fixed".
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "leach", "pure-leach", "pureleach", "none":
		return PureLEACH, nil
	case "scheme1", "s1", "adaptive", "caem-scheme1":
		return Scheme1, nil
	case "scheme2", "s2", "fixed", "caem-scheme2":
		return Scheme2, nil
	default:
		return 0, fmt.Errorf("caem: unknown protocol %q (want leach, scheme1, or scheme2)", s)
	}
}

// MarshalText encodes the protocol as its canonical name, making Config
// JSON files human-readable ("CAEM-scheme1" instead of 1).
func (p Protocol) MarshalText() ([]byte, error) {
	switch p {
	case PureLEACH, Scheme1, Scheme2:
		return []byte(p.String()), nil
	default:
		return nil, fmt.Errorf("caem: cannot marshal unknown protocol %d", int(p))
	}
}

// UnmarshalText decodes any spelling ParseProtocol accepts.
func (p *Protocol) UnmarshalText(text []byte) error {
	v, err := ParseProtocol(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (p Protocol) policy() (queueing.ThresholdPolicy, error) {
	switch p {
	case PureLEACH:
		return queueing.PolicyNone, nil
	case Scheme1:
		return queueing.PolicyAdaptive, nil
	case Scheme2:
		return queueing.PolicyFixedHighest, nil
	default:
		return 0, fmt.Errorf("caem: unknown protocol %d", int(p))
	}
}

// Advanced exposes the less commonly varied model parameters. The zero
// value of any field means "use the paper default" (DESIGN.md §4).
type Advanced struct {
	// RoundLengthSeconds is the LEACH round duration.
	RoundLengthSeconds float64 `json:"roundLengthSeconds,omitempty"`
	// HeadFraction is LEACH's P, the expected cluster-head fraction.
	HeadFraction float64 `json:"headFraction,omitempty"`
	// DopplerHz scales the microscopic fading rate (channel coherence
	// time ≈ 9/(16π·Doppler)).
	DopplerHz float64 `json:"dopplerHz,omitempty"`
	// ShadowingSigmaDB is the log-normal shadowing spread. Negative
	// disables shadowing entirely.
	ShadowingSigmaDB float64 `json:"shadowingSigmaDB,omitempty"`
	// PathLossExponent is the log-distance path loss slope.
	PathLossExponent float64 `json:"pathLossExponent,omitempty"`
	// ReferenceSNRdB is the link budget: mean SNR at 10 m.
	ReferenceSNRdB float64 `json:"referenceSNRdB,omitempty"`
	// QueueThreshold is Scheme 1's Q_th activation level.
	QueueThreshold int `json:"queueThreshold,omitempty"`
	// SampleEvery is Scheme 1's m (queue sampled every m arrivals).
	SampleEvery int `json:"sampleEvery,omitempty"`
	// MinBurst / MaxBurst bound the packets per transmission.
	MinBurst int `json:"minBurst,omitempty"`
	MaxBurst int `json:"maxBurst,omitempty"`
	// MaxRetries caps per-packet retransmissions.
	MaxRetries int `json:"maxRetries,omitempty"`
	// StartupTimeMicros is the data radio's sleep→active time.
	StartupTimeMicros float64 `json:"startupTimeMicros,omitempty"`
	// BaseStationForwarding enables the paper's base-station forwarding
	// extension: cluster heads aggregate and periodically forward to the
	// sink, and sink-down scenario events become metric-visible.
	BaseStationForwarding bool `json:"baseStationForwarding,omitempty"`
}

// Config parameterizes one simulation run. DefaultConfig returns the
// paper's Table II operating point.
//
// Config round-trips through JSON: scenario files (see Scenario) embed a
// partial Config object as overrides, and a marshalled-then-unmarshalled
// Config produces a bit-identical run. The TraceCSV writer is the one
// runtime-only field and is excluded from serialization.
type Config struct {
	// Protocol is the variant under test.
	Protocol Protocol `json:"protocol,omitempty"`
	// Seed makes the run reproducible; equal seeds give identical runs.
	Seed uint64 `json:"seed,omitempty"`
	// Nodes is the network size.
	Nodes int `json:"nodes,omitempty"`
	// FieldWidthM and FieldHeightM give the deployment area in meters.
	FieldWidthM  float64 `json:"fieldWidthM,omitempty"`
	FieldHeightM float64 `json:"fieldHeightM,omitempty"`
	// TrafficLoad is the per-node Poisson packet rate (the paper's
	// "added traffic load", packets/second).
	TrafficLoad float64 `json:"trafficLoad,omitempty"`
	// PacketSizeBits is the information payload per packet.
	PacketSizeBits int `json:"packetSizeBits,omitempty"`
	// BufferCapacity is the per-node queue limit in packets
	// (0 = unbounded, as the paper's fairness experiment uses).
	BufferCapacity int `json:"bufferCapacity,omitempty"`
	// InitialEnergyJ is the per-node battery budget.
	InitialEnergyJ float64 `json:"initialEnergyJ,omitempty"`
	// DurationSeconds bounds simulated time.
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
	// StopWhenNetworkDead ends the run once 80% of nodes are exhausted
	// (the network-lifetime event) instead of running to the horizon.
	StopWhenNetworkDead bool `json:"stopWhenNetworkDead,omitempty"`
	// SampleIntervalSeconds sets the metric time-series cadence.
	SampleIntervalSeconds float64 `json:"sampleIntervalSeconds,omitempty"`
	// Advanced optionally overrides deeper model parameters.
	Advanced Advanced `json:"advanced,omitzero"`
	// TraceCSV, when non-nil, receives the full protocol event stream
	// (rounds, bursts, deliveries, collisions, drops, deferrals, deaths)
	// as CSV rows while the simulation runs. Expect millions of rows for
	// saturated full-scale runs. Never serialized.
	TraceCSV io.Writer `json:"-"`
	// Workers bounds the concurrency of the multi-run entry points
	// (RunComparison, RunSeeds, RunCampaign): 0 means one worker per CPU,
	// 1 forces serial execution — results are bit-identical either way.
	// Callers that parallelize at a higher level should set 1 to avoid
	// oversubscription. Run ignores it (a single run is single-threaded).
	Workers int `json:"workers,omitempty"`
}

// DefaultConfig returns the paper's simulation parameters (Table II):
// 100 nodes on a 100 m × 100 m field, 2 Kbit packets at 5 pkt/s, 50-packet
// buffers, 10 J batteries, Scheme 1.
func DefaultConfig() Config {
	return Config{
		Protocol:              Scheme1,
		Seed:                  1,
		Nodes:                 100,
		FieldWidthM:           100,
		FieldHeightM:          100,
		TrafficLoad:           5,
		PacketSizeBits:        2000,
		BufferCapacity:        50,
		InitialEnergyJ:        10,
		DurationSeconds:       600,
		SampleIntervalSeconds: 5,
	}
}

func (c Config) simConfig() (core.Config, error) {
	policy, err := c.Protocol.policy()
	if err != nil {
		return core.Config{}, err
	}
	sc := core.DefaultConfig()
	sc.Seed = c.Seed
	sc.Nodes = c.Nodes
	sc.FieldWidth = c.FieldWidthM
	sc.FieldHeight = c.FieldHeightM
	sc.Policy = policy
	sc.ArrivalRatePerSecond = c.TrafficLoad
	sc.PacketSizeBits = c.PacketSizeBits
	sc.BufferCapacity = c.BufferCapacity
	sc.InitialEnergyJ = c.InitialEnergyJ
	sc.Horizon = sim.FromSeconds(c.DurationSeconds)
	sc.StopWhenNetworkDead = c.StopWhenNetworkDead
	if c.SampleIntervalSeconds > 0 {
		sc.SampleInterval = sim.FromSeconds(c.SampleIntervalSeconds)
	}

	a := c.Advanced
	if a.RoundLengthSeconds > 0 {
		sc.RoundLength = sim.FromSeconds(a.RoundLengthSeconds)
	}
	if a.HeadFraction > 0 {
		sc.HeadFraction = a.HeadFraction
	}
	if a.DopplerHz > 0 {
		sc.Channel.DopplerHz = a.DopplerHz
	}
	if a.ShadowingSigmaDB > 0 {
		sc.Channel.ShadowingSigmaDB = a.ShadowingSigmaDB
	} else if a.ShadowingSigmaDB < 0 {
		sc.Channel.ShadowingSigmaDB = 0
	}
	if a.PathLossExponent > 0 {
		sc.Channel.PathLossExponent = a.PathLossExponent
	}
	if a.ReferenceSNRdB > 0 {
		sc.Channel.ReferenceSNRdB = a.ReferenceSNRdB
	}
	if a.QueueThreshold > 0 {
		sc.Adjust.QueueThreshold = a.QueueThreshold
	}
	if a.SampleEvery > 0 {
		sc.Adjust.SampleEvery = a.SampleEvery
	}
	if a.MinBurst > 0 {
		sc.MAC.MinBurst = a.MinBurst
	}
	if a.MaxBurst > 0 {
		sc.MAC.MaxBurst = a.MaxBurst
	}
	if a.MaxRetries > 0 {
		sc.MAC.MaxRetries = a.MaxRetries
	}
	if a.StartupTimeMicros > 0 {
		sc.Device.DataStartupTime = sim.Time(a.StartupTimeMicros + 0.5)
	}
	sc.BaseStationForwarding = a.BaseStationForwarding
	return sc, nil
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	sc, err := c.simConfig()
	if err != nil {
		return err
	}
	return sc.Validate()
}

// Run executes one simulation and returns its results.
func Run(c Config) (Result, error) {
	return runPooled(nil, c)
}

// runPooled resolves and executes one configuration, on the given
// resident context pool when non-nil (the multi-run entry points hand
// each worker its own) or on a fresh context otherwise.
func runPooled(p *runner.Pool, c Config) (Result, error) {
	sc, err := c.simConfig()
	if err != nil {
		return Result{}, err
	}
	return runSim(p, c, sc)
}

// runSim validates and executes one resolved core configuration, wiring
// the optional trace stream. Shared by Run, RunScenario, and the pooled
// grid entry points (pool may be nil for a one-shot context).
func runSim(p *runner.Pool, c Config, sc core.Config) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	var traceErr func() error
	if c.TraceCSV != nil {
		sc.Trace, traceErr = streamCSV(c.TraceCSV)
	}
	var res core.Result
	if p != nil {
		res = p.Run(sc)
	} else {
		res = core.New(sc).Run()
	}
	pub := publicResult(c, res)
	if traceErr != nil {
		if err := traceErr(); err != nil {
			return pub, fmt.Errorf("caem: trace stream failed: %w", err)
		}
	}
	return pub, nil
}

// streamCSV returns a trace callback that encodes events to w as CSV
// rows (header written immediately), without retaining them — suitable
// for tracing arbitrarily long runs. Write errors disable the stream and
// are reported by the returned error function.
func streamCSV(w io.Writer) (fn func(core.TraceEvent), errf func() error) {
	var err error
	if _, werr := fmt.Fprintln(w, "time_s,kind,node,value,detail"); werr != nil {
		err = werr
	}
	fn = func(e core.TraceEvent) {
		if err != nil {
			return
		}
		if _, werr := fmt.Fprintf(w, "%.6f,%s,%d,%d,%s\n",
			e.T.Seconds(), e.Kind, e.Node, e.Value, e.Detail); werr != nil {
			err = werr
		}
	}
	return fn, func() error { return err }
}

// RunComparison runs the same configuration under each protocol (same
// seed, same topology, same channel realizations) and returns the results
// keyed in Protocols() order. This is the paper's core experimental
// pattern: hold everything fixed, vary only the energy-management policy.
//
// The runs are independent, so they execute in parallel per
// Config.Workers unless a trace writer is attached — trace streams are
// sequential by nature, so tracing forces one worker.
func RunComparison(c Config, protocols ...Protocol) ([]Result, error) {
	if len(protocols) == 0 {
		protocols = Protocols()
	}
	workers := c.Workers
	if c.TraceCSV != nil {
		workers = 1
	}
	return runVariants(workers, len(protocols),
		func(i int) string { return protocols[i].String() },
		func(p *runner.Pool, i int) (Result, error) {
			cc := c
			cc.Protocol = protocols[i]
			return runPooled(p, cc)
		})
}

// runVariants executes n independent variants through runner.Do,
// which hands every worker a resident context pool so grid cells reuse
// simulation state instead of rebuilding the world per cell. Do's one
// failure policy holds at every worker count: once a variant fails no
// new variant starts, and the lowest-indexed failure is reported — an
// error wrapped with the variant's description, a panic re-raised on
// the caller with its index.
func runVariants(workers, n int, describe func(int) string, run func(p *runner.Pool, i int) (Result, error)) ([]Result, error) {
	out := make([]Result, n)
	if err := runner.Do(workers, n, func(p *runner.Pool, i int) (err error) {
		if out[i], err = run(p, i); err != nil {
			return fmt.Errorf("caem: %s run failed: %w", describe(i), err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSeeds runs the same configuration across the given seeds — the
// replication pattern behind every error bar in the evaluation — fanned
// out over the worker pool per Config.Workers. Results come back in seed
// order and are bit-identical to serial runs. Tracing is incompatible
// with replication: each run would interleave on the one writer.
func RunSeeds(c Config, seeds []uint64) ([]Result, error) {
	if c.TraceCSV != nil {
		return nil, fmt.Errorf("caem: RunSeeds cannot stream traces from %d concurrent runs; run seeds individually", len(seeds))
	}
	return runVariants(c.Workers, len(seeds),
		func(i int) string { return fmt.Sprintf("seed %d", seeds[i]) },
		func(p *runner.Pool, i int) (Result, error) {
			cc := c
			cc.Seed = seeds[i]
			return runPooled(p, cc)
		})
}
