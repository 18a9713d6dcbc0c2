// Package leach implements the LEACH clustering substrate (Heinzelman et
// al., HICSS 2000) that the paper layers CAEM on top of (§IV).
//
// LEACH organizes the network into rounds. At the start of each round,
// every alive node draws a uniform random number and becomes a cluster
// head (CH) if the draw falls below the threshold
//
//	T(n) = P / (1 - P·(r mod ⌈1/P⌉))   if n ∈ G,   else 0
//
// where P is the desired CH fraction (5% in the paper), r is the round
// number, and G is the set of nodes that have not served as CH in the
// current rotation epoch of ⌈1/P⌉ rounds. Once every node has served, G
// resets. Non-CH nodes then join the nearest CH. Rotation spreads the
// expensive CH duty evenly, which is why the paper's lifetime curves
// (Fig. 9) drop abruptly: nodes exhaust their batteries nearly together.
package leach

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Config holds the LEACH parameters.
type Config struct {
	// HeadFraction is P, the desired fraction of nodes serving as CH per
	// round (0.05 in the paper).
	HeadFraction float64
	// Nodes is the network size.
	Nodes int
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if c.HeadFraction <= 0 || c.HeadFraction > 1 {
		return fmt.Errorf("leach: HeadFraction %v outside (0, 1]", c.HeadFraction)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("leach: Nodes = %d, need >= 1", c.Nodes)
	}
	return nil
}

// EpochRounds returns ⌈1/P⌉, the number of rounds in one rotation epoch.
func (c Config) EpochRounds() int {
	return int(math.Ceil(1 / c.HeadFraction))
}

// Election runs the per-round CH self-election across rounds, maintaining
// the G set.
type Election struct {
	cfg    Config
	stream *rng.Stream
	// eligible[i] = node i has not served as CH in the current epoch.
	eligible []bool
	round    int
}

// NewElection builds the election state. The stream must be dedicated to
// the election so results are reproducible.
func NewElection(cfg Config, stream *rng.Stream) *Election {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Election{cfg: cfg, stream: stream, eligible: make([]bool, cfg.Nodes)}
	e.resetEpoch()
	return e
}

func (e *Election) resetEpoch() {
	for i := range e.eligible {
		e.eligible[i] = true
	}
}

// Reset rewinds the election to a fresh NewElection(cfg, stream) state,
// reusing the eligibility storage when the node count allows. The stream
// must already be rewound by the caller (it owns the stream's seeding).
func (e *Election) Reset(cfg Config, stream *rng.Stream) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e.cfg = cfg
	e.stream = stream
	if cap(e.eligible) >= cfg.Nodes {
		e.eligible = e.eligible[:cfg.Nodes]
	} else {
		e.eligible = make([]bool, cfg.Nodes)
	}
	e.round = 0
	e.resetEpoch()
}

// Threshold returns T(n) for an eligible node in the given round.
func (e *Election) Threshold(round int) float64 {
	p := e.cfg.HeadFraction
	mod := round % e.cfg.EpochRounds()
	den := 1 - p*float64(mod)
	if den <= 0 {
		return 1
	}
	return p / den
}

// ElectInto runs one round over the alive-node mask and returns the CH
// indices, appended into dst from length zero so a round-driving caller
// can reuse one heads slice across rounds. Dead nodes never become CH
// and do not consume election randomness (they have left the protocol).
// If no alive node self-elects, the fallback designates the alive
// eligible node with the smallest draw (a deterministic stand-in for the
// re-election a real deployment would perform), so every round has at
// least one CH while any node lives.
func (e *Election) ElectInto(dst []int, alive []bool) []int {
	if len(alive) != e.cfg.Nodes {
		panic(fmt.Sprintf("leach: alive mask has %d entries, want %d", len(alive), e.cfg.Nodes))
	}
	round := e.round
	e.round++
	if round > 0 && round%e.cfg.EpochRounds() == 0 {
		e.resetEpoch()
	}
	th := e.Threshold(round)

	heads := dst[:0]
	bestIdx := -1
	bestDraw := math.Inf(1)
	anyAlive := false
	for i := 0; i < e.cfg.Nodes; i++ {
		if !alive[i] {
			continue
		}
		anyAlive = true
		if !e.eligible[i] {
			continue
		}
		draw := e.stream.Float64()
		if draw < bestDraw {
			bestDraw, bestIdx = draw, i
		}
		if draw < th {
			heads = append(heads, i)
			e.eligible[i] = false
		}
	}
	if len(heads) == 0 && anyAlive {
		if bestIdx < 0 {
			// Every alive node already served this epoch; reset and use
			// the first alive node (epoch exhaustion with deaths).
			e.resetEpoch()
			for i := 0; i < e.cfg.Nodes; i++ {
				if alive[i] {
					bestIdx = i
					break
				}
			}
		}
		heads = append(heads, bestIdx)
		e.eligible[bestIdx] = false
	}
	return heads
}

// Assignment maps every alive node to its cluster for one round.
type Assignment struct {
	// Heads lists the CH node indices.
	Heads []int
	// ClusterOf[i] is the index into Heads of node i's cluster, or -1
	// for dead nodes. A CH belongs to its own cluster.
	ClusterOf []int
	// Members[c] lists the non-CH member node indices of cluster c.
	Members [][]int

	// headPts is the per-call scratch of CH positions, retained so a
	// reused Assignment forms clusters without allocating.
	headPts []geom.Point
}

// AssignInto forms clusters by nearest-CH (the LEACH join rule:
// strongest received advertisement ≈ nearest head for a common transmit
// power). It writes into an existing Assignment, reusing its slices
// (including the per-cluster member lists) so the per-round clustering of
// a long run stops allocating once the working set peaks.
func AssignInto(a *Assignment, heads []int, positions []geom.Point, alive []bool) {
	a.Heads = append(a.Heads[:0], heads...)
	if cap(a.ClusterOf) >= len(positions) {
		a.ClusterOf = a.ClusterOf[:len(positions)]
	} else {
		a.ClusterOf = make([]int, len(positions))
	}
	for cap(a.Members) < len(heads) {
		a.Members = append(a.Members[:cap(a.Members)], nil)
	}
	a.Members = a.Members[:len(heads)]
	for c := range a.Members {
		a.Members[c] = a.Members[c][:0]
	}
	a.headPts = a.headPts[:0]
	for _, h := range heads {
		a.headPts = append(a.headPts, positions[h])
	}
	for i := range positions {
		if !alive[i] {
			a.ClusterOf[i] = -1
			continue
		}
		isHead := false
		for c, h := range heads {
			if h == i {
				a.ClusterOf[i] = c
				isHead = true
				break
			}
		}
		if isHead {
			continue
		}
		c, _ := geom.Nearest(positions[i], a.headPts)
		a.ClusterOf[i] = c
		a.Members[c] = append(a.Members[c], i)
	}
}

// HeadOf returns the CH node index serving node i, or -1 for dead nodes.
func (a Assignment) HeadOf(i int) int {
	c := a.ClusterOf[i]
	if c < 0 {
		return -1
	}
	return a.Heads[c]
}
