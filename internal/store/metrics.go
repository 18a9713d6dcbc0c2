package store

import (
	"repro/internal/obs"
)

// Metric families owned by the results store. Instrumentation is per
// durable batch and roll — one PutBatch is one append and one fsync
// covering a settled lease's cell results, so this granularity can never
// touch the simulation hot loop.
const (
	metricAppends     = "caem_store_appends_total"
	metricBytes       = "caem_store_bytes_written_total"
	metricFaults      = "caem_store_write_faults_total"
	metricFsync       = "caem_store_fsync_seconds"
	metricRecovered   = "caem_store_recovered_bytes"
	metricCellsStored = "caem_store_cells"

	metricSegments     = "caem_store_segments"
	metricRolls        = "caem_store_segment_rolls_total"
	metricSegmentLoads = "caem_store_segment_loads_total"
	metricCorrupt      = "caem_store_corrupt_records_total"
)

// storeMetrics holds the store's instrument handles. A nil
// *storeMetrics is valid and inert, so an unobserved Store pays one
// nil check per hook and nothing else.
type storeMetrics struct {
	appends   *obs.Counter
	bytes     *obs.Counter
	faults    *obs.CounterVec
	fsync     *obs.Histogram
	recovered *obs.Gauge
	cells     *obs.Gauge

	segments     *obs.Gauge
	rolls        *obs.Counter
	segmentLoads *obs.Counter
	corrupt      *obs.Counter
}

// RegisterMetrics registers the store's metric families on reg and
// returns the handles. Idempotent; also the catalog surface used by
// the obs-check lint.
func RegisterMetrics(reg *obs.Registry) *storeMetrics {
	return &storeMetrics{
		appends: reg.Counter(metricAppends,
			"Record lines appended to the active results tail."),
		bytes: reg.Counter(metricBytes,
			"Bytes appended to the active results tail."),
		faults: reg.CounterVec(metricFaults,
			"Write failures by operation (append, sync, roll), including injected faults.",
			"op"),
		fsync: reg.Histogram(metricFsync,
			"Latency of the log fsync, one per durable batch of appended records, in seconds.", obs.LatencyBuckets),
		recovered: reg.Gauge(metricRecovered,
			"Torn-tail bytes dropped during recovery when this store was opened."),
		cells: reg.Gauge(metricCellsStored,
			"Distinct cell results currently stored (segments plus active tail)."),
		segments: reg.Gauge(metricSegments,
			"Immutable segment files currently in the store."),
		rolls: reg.Counter(metricRolls,
			"Active-tail rolls into immutable segments."),
		segmentLoads: reg.Counter(metricSegmentLoads,
			"Lazy segment index loads (bloom/range pruning misses land here)."),
		corrupt: reg.Counter(metricCorrupt,
			"Segment checksum failures: key blocks and record lines read whose CRC-32C did not match."),
	}
}

// Observe attaches the store to a metrics registry: families are
// registered get-or-create, the recovery/size gauges primed from
// current state, and the segment-load and checksum-failure counters
// seeded with what Open already counted. Call once after Open; a store
// never observed skips all instrumentation.
func (s *Store) Observe(reg *obs.Registry) {
	m := RegisterMetrics(reg)
	s.mu.Lock()
	s.met = m
	m.recovered.Set(float64(s.recovered))
	m.cells.Set(float64(s.distinct))
	m.segments.Set(float64(len(s.segs)))
	m.segmentLoads.Add(float64(s.segmentLoads))
	m.corrupt.Add(float64(s.corrupt))
	s.mu.Unlock()
}

func (m *storeMetrics) appendDone(lines, bytes int, cells int) {
	if m == nil {
		return
	}
	m.appends.Add(float64(lines))
	m.bytes.Add(float64(bytes))
	m.cells.Set(float64(cells))
}

func (m *storeMetrics) fault(op string) {
	if m == nil {
		return
	}
	m.faults.With(op).Inc()
}

func (m *storeMetrics) observeFsync(seconds float64) {
	if m == nil {
		return
	}
	m.fsync.Observe(seconds)
}

func (m *storeMetrics) rollDone(segments int) {
	if m == nil {
		return
	}
	m.rolls.Inc()
	m.segments.Set(float64(segments))
}

func (m *storeMetrics) segmentLoad() {
	if m == nil {
		return
	}
	m.segmentLoads.Inc()
}

func (m *storeMetrics) corruptRecord() {
	if m == nil {
		return
	}
	m.corrupt.Inc()
}
