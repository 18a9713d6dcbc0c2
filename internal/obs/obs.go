// Package obs is the repository's zero-dependency observability layer:
// a race-clean metrics registry (atomic counters, gauges, and
// fixed-bucket histograms) with Prometheus text-format exposition, a
// small exposition parser reused as the CI metric lint, structured
// leveled logging helpers on log/slog, and per-route HTTP
// instrumentation middleware.
//
// Instruments are cheap enough to update at cell/lease/store
// granularity from many goroutines — a counter increment is one atomic
// CAS, a histogram observation one binary search plus two atomics,
// and neither allocates — but they are deliberately NOT wired into the
// simulation hot path: the event engine stays alloc-free and
// instrumentation lives at the orchestration layer around it
// (internal/cluster, internal/store, the caem-serve HTTP mux).
//
// The registry hands out get-or-create instrument families, so
// independent subsystems observing the same Registry converge on one
// coherent exposition, and the same family constructors can be run
// standalone (scripts/obscheck) to lint the full production metric
// catalog without starting a server. Callers cache the returned
// instrument handles; the family map is only consulted at registration
// time, never on the update path.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as exposed in "# TYPE" exposition comments.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// atomicFloat is a float64 updated with CAS on its bit pattern —
// lock-free, race-clean, and allocation-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric. Negative deltas panic:
// a decreasing counter silently corrupts every rate() computed from it.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v, which must be non-negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Value() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Value() }

// Histogram counts observations into fixed cumulative buckets — the
// Prometheus histogram model: bucket le=B counts observations ≤ B,
// plus a sum for mean computation. The total count is the +Inf
// bucket's, so a scrape's _count always equals it.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; equal values land in the bucket,
	// matching le (less-or-equal) semantics.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Default bucket sets for the latencies this repository measures.
var (
	// LatencyBuckets suits sub-millisecond-to-seconds I/O and RPC
	// latencies (fsync, heartbeat RTT, HTTP handlers), in seconds.
	LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	// SizeBuckets suits small integer size distributions (lease batch
	// sizes, queue depths).
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
)

// family is one named metric family: a type, a help string, a fixed
// label-name set, and the series materialized so far.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled instrument within a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
}

// seriesKey encodes label values unambiguously (values may contain any
// byte except the separator, which label escaping forbids anyway).
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// get returns the series for the given label values, creating it on
// first use. Handles are stable: callers cache them and update without
// further locking.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		switch f.typ {
		case TypeCounter:
			s.counter = &Counter{}
		case TypeGauge:
			s.gauge = &Gauge{}
		case TypeHistogram:
			s.histogram = &Histogram{
				bounds: f.buckets,
				counts: make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
		f.series[key] = s
	}
	return s
}

// snapshot returns the family's series sorted by label values, for
// deterministic exposition.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	return out
}

// Registry holds metric families and renders them as one coherent
// exposition. All methods are safe for concurrent use; instrument
// registration is idempotent (get-or-create), so independent
// subsystems can declare the same family and share its series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelNameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// register returns the named family, creating it on first registration
// and panicking on a conflicting re-registration — two subsystems
// disagreeing about a metric's shape is a programming error the first
// scrape would otherwise surface as corrupt exposition.
func (r *Registry) register(name, help, typ string, labelNames []string, buckets []float64) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !labelNameRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: metric %s has invalid label name %q", name, l))
		}
	}
	if typ == TypeHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %s needs buckets", name))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a counter family with the given
// label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, TypeCounter, labelNames, nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a gauge family with the given label
// names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, TypeGauge, labelNames, nil)}
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a histogram family with the given
// label names and bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labelNames, buckets)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label
// name, in registration order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).counter }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.get(labelValues).gauge }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).histogram }

// snapshotFamilies returns the registry's families sorted by name.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, 0, len(names))
	for _, n := range names {
		out = append(out, r.families[n])
	}
	return out
}
