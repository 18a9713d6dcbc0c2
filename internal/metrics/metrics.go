// Package metrics implements the measurement instruments for the paper's
// evaluation (§IV.A): energy traces, alive-node counts, network lifetime,
// per-packet energy, packet delay, aggregate throughput, delivery rate,
// and the queue-length standard deviation used as the short-term fairness
// index.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Point is one (time, value) sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// TimeSeries records sampled values over simulation time (e.g. average
// remaining energy for Fig. 8, alive count for Fig. 9).
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries returns an empty named series. There is deliberately no
// in-place reset: a finished run's series belong to its Result, so the
// reusable simulation context allocates fresh series instead of
// truncating ones a caller may still hold.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Record appends a sample. Samples must be appended in non-decreasing time
// order; out-of-order appends panic because downstream interpolation
// relies on ordering.
func (ts *TimeSeries) Record(t sim.Time, v float64) {
	if n := len(ts.points); n > 0 && ts.points[n-1].T > t {
		panic(fmt.Sprintf("metrics: out-of-order sample at %v after %v in %q", t, ts.points[n-1].T, ts.Name))
	}
	ts.points = append(ts.points, Point{T: t, V: v})
}

// Points returns the samples (callers must not mutate).
func (ts *TimeSeries) Points() []Point { return ts.points }

// At returns the last recorded value at or before t (step interpolation);
// ok=false before the first sample.
func (ts *TimeSeries) At(t sim.Time) (float64, bool) {
	i := sort.Search(len(ts.points), func(i int) bool { return ts.points[i].T > t })
	if i == 0 {
		return 0, false
	}
	return ts.points[i-1].V, true
}

// DelayStats accumulates packet delays (creation → delivery at the CH),
// tracking mean and max plus a constant-memory P² estimate of the
// 95th percentile (the tail the mean hides under bursty service).
type DelayStats struct {
	w   stats.Welford
	p95 stats.Quantile
}

// Observe records one delivered packet's delay.
func (d *DelayStats) Observe(delay sim.Time) {
	if d.w.Count() == 0 {
		d.p95 = stats.NewQuantile(0.95)
	}
	d.w.Add(delay.Millis())
	d.p95.Add(delay.Millis())
}

// MeanMs returns the average delay in milliseconds (§IV.A measures delay
// in ms).
func (d *DelayStats) MeanMs() float64 { return d.w.Mean() }

// MaxMs returns the largest observed delay in milliseconds.
func (d *DelayStats) MaxMs() float64 { return d.w.Max() }

// P95Ms returns the streaming 95th-percentile delay estimate in
// milliseconds (0 when no packet has been delivered, matching the
// other accessors' empty behaviour).
func (d *DelayStats) P95Ms() float64 {
	if d.w.Count() == 0 {
		return 0
	}
	return d.p95.Value()
}

// FairnessProbe computes the paper's short-term fairness index: the
// standard deviation of per-node queue lengths, snapshotted periodically
// and averaged over the observation window (§IV.C, Fig. 12).
type FairnessProbe struct {
	snapshots stats.Welford
}

// Snapshot records one instant's queue lengths across all alive nodes.
func (f *FairnessProbe) Snapshot(queueLengths []int) {
	n := len(queueLengths)
	if n == 0 {
		return
	}
	var sum float64
	for _, q := range queueLengths {
		sum += float64(q)
	}
	mean := sum / float64(n)
	var ss float64
	for _, q := range queueLengths {
		d := float64(q) - mean
		ss += d * d
	}
	f.snapshots.Add(math.Sqrt(ss / float64(n)))
}

// MeanStdDev returns the average of the snapshot standard deviations —
// the Fig. 12 y-axis.
func (f *FairnessProbe) MeanStdDev() float64 { return f.snapshots.Mean() }

// Lifetime tracks node deaths (and scenario revivals) and derives the
// network lifetime: the paper calls the network dead once the fraction of
// dead nodes passes a threshold (value lost in the scan; DESIGN.md fixes
// 80%). With revivals in play the dead count is a step function of time,
// so the lifetime is the first instant the *concurrent* dead fraction
// reaches the threshold — a node dying twice is not double-counted.
type Lifetime struct {
	total      int
	deadTimes  []sim.Time
	deltas     []lifeDelta // +1 death / -1 revival, in occurrence order
	deadsSoFar int
}

type lifeDelta struct {
	at    sim.Time
	delta int
}

// NewLifetime tracks a population of total nodes.
func NewLifetime(total int) *Lifetime {
	return &Lifetime{total: total}
}

// Reset rewinds the tracker to a fresh NewLifetime(total) state while
// keeping the event storage. The reuse path for pooled simulation
// contexts (death times handed to a Result are copied, never aliased).
func (l *Lifetime) Reset(total int) {
	l.total = total
	l.deadTimes = l.deadTimes[:0]
	l.deltas = l.deltas[:0]
	l.deadsSoFar = 0
}

// NodeDied records one death.
func (l *Lifetime) NodeDied(at sim.Time) {
	l.deadsSoFar++
	l.deadTimes = append(l.deadTimes, at)
	l.deltas = append(l.deltas, lifeDelta{at: at, delta: 1})
}

// NodeRevived records one node returning to service at the given time
// (scenario world events). The death history is retained — FirstDeath
// keeps reporting the first exhaustion — while Alive and NetworkDeadAt
// reflect the concurrent population.
func (l *Lifetime) NodeRevived(at sim.Time) {
	if l.deadsSoFar == 0 {
		panic("metrics: NodeRevived without a prior death")
	}
	l.deadsSoFar--
	l.deltas = append(l.deltas, lifeDelta{at: at, delta: -1})
}

// Alive returns the current alive count.
func (l *Lifetime) Alive() int { return l.total - l.deadsSoFar }

// Deaths returns the death times in occurrence order.
func (l *Lifetime) Deaths() []sim.Time { return l.deadTimes }

// FirstDeath returns the time of the first exhaustion; ok=false if none.
func (l *Lifetime) FirstDeath() (sim.Time, bool) {
	if len(l.deadTimes) == 0 {
		return 0, false
	}
	return l.deadTimes[0], true
}

// NetworkDeadAt returns the first time the concurrent dead fraction
// reached deadFraction; ok=false if it never did. Revivals lower the
// concurrent count, so a churn world where nodes die, return, and die
// again is judged on how many are dead at once, not on cumulative death
// events.
func (l *Lifetime) NetworkDeadAt(deadFraction float64) (sim.Time, bool) {
	need := int(math.Ceil(deadFraction * float64(l.total)))
	if need < 1 {
		need = 1
	}
	dead := 0
	for _, d := range l.deltas {
		dead += d.delta
		if dead >= need {
			return d.at, true
		}
	}
	return 0, false
}

// Throughput accumulates delivered payload for the aggregate network
// throughput metric (kbps over the observation window, §IV.A).
type Throughput struct {
	deliveredBits uint64
	generated     uint64
	delivered     uint64
	droppedBuffer uint64
	droppedRetry  uint64
}

// PacketGenerated counts one generated packet.
func (t *Throughput) PacketGenerated() { t.generated++ }

// PacketDelivered counts one packet of the given size arriving at a sink.
func (t *Throughput) PacketDelivered(sizeBits int) {
	t.delivered++
	t.deliveredBits += uint64(sizeBits)
}

// PacketDroppedBuffer counts one buffer-overflow loss.
func (t *Throughput) PacketDroppedBuffer() { t.droppedBuffer++ }

// PacketDroppedRetry counts one retry-cap loss.
func (t *Throughput) PacketDroppedRetry() { t.droppedRetry++ }

// Generated returns the packets generated.
func (t *Throughput) Generated() uint64 { return t.generated }

// Delivered returns the packets delivered.
func (t *Throughput) Delivered() uint64 { return t.delivered }

// DroppedBuffer returns buffer-overflow losses.
func (t *Throughput) DroppedBuffer() uint64 { return t.droppedBuffer }

// DroppedRetry returns retry-cap losses.
func (t *Throughput) DroppedRetry() uint64 { return t.droppedRetry }

// DeliveryRate returns delivered/generated in [0, 1]; 0 when nothing was
// generated.
func (t *Throughput) DeliveryRate() float64 {
	if t.generated == 0 {
		return 0
	}
	return float64(t.delivered) / float64(t.generated)
}

// AggregateKbps returns the delivered-payload rate over the window.
func (t *Throughput) AggregateKbps(window sim.Time) float64 {
	s := window.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(t.deliveredBits) / s / 1000
}
