package caem

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/store"
)

// CampaignStore is the persistent, append-only results store for
// campaign cells: each completed (scenario, protocol, seed) run is one
// self-describing JSONL record keyed by a content hash of everything
// that determines its outcome, so stored cells are only ever reused for
// bit-identical reruns. Every cell is read back by that key (HasCell,
// LookupCell, LookupSummary). It backs checkpoint/resume
// (RunCampaignWith) and the caem-serve campaign service. The service
// persists its campaign specs here (SaveCampaignSpec) to survive
// restarts. It serves results from its own in-memory view of metric
// rows, filled from each PutCells batch (CellPut.Summary) and rehydrated
// with SummaryCell, and reads a stored row back (LookupSummary) only for
// cells restored from an earlier run.
//
// A CampaignStore is safe for concurrent use within one process; keep a
// single writer per directory across processes.
type CampaignStore struct {
	s *store.Store
}

// OpenStore opens (creating if needed) the results store rooted at dir,
// recovering from a torn log tail left by a killed campaign.
func OpenStore(dir string) (*CampaignStore, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("caem: %w", err)
	}
	return &CampaignStore{s: s}, nil
}

// Dir returns the store's root directory.
func (cs *CampaignStore) Dir() string { return cs.s.Dir() }

// Len returns the number of distinct stored cells.
func (cs *CampaignStore) Len() int { return cs.s.Len() }

// RecoveredBytes reports how many torn-tail bytes OpenStore dropped to
// restore a consistent log (0 for a clean shutdown).
func (cs *CampaignStore) RecoveredBytes() int64 { return cs.s.RecoveredBytes() }

// Observe attaches the store to a metrics registry: append, byte,
// fsync-latency, fault, recovery, segment, roll and segment-load
// instruments register get-or-create and update on every subsequent
// operation. A store never observed skips all instrumentation.
func (cs *CampaignStore) Observe(reg *obs.Registry) { cs.s.Observe(reg) }

// Stats returns a snapshot of the underlying store's shape and access
// counters (segments, distinct cells, segment-load and roll counts).
func (cs *CampaignStore) Stats() store.Stats { return cs.s.Stats() }

// Flush does nothing and returns nil: every PutCell and PutCells is
// already durable when it returns. It remains for callers written when
// the store checkpointed an index.
func (cs *CampaignStore) Flush() error { return nil }

// Close releases the store. Every acknowledged PutCell and PutCells is
// already durable, so Close has nothing to write.
func (cs *CampaignStore) Close() error { return cs.s.Close() }

// ModelVersion identifies the simulation model that produces a Result:
// its physics, its protocol logic, and the event engine's execution
// order. A change that moves any Result bumps it and re-records
// testdata/results.golden in the same diff. CellHash folds it in, so a
// store written under another version never serves a cell, and the
// lease protocol refuses a worker that runs another version. Builds
// before the version existed are model 1; model 2 runs packet arrivals
// ahead of the protocol events due in the same microsecond.
const ModelVersion = 2

// CellHash returns the deterministic content hash identifying a
// campaign cell family: the model version, the base configuration with
// the per-cell axes (Protocol, Seed) and the run-orchestration fields
// (Workers, TraceCSV) normalized out, and the complete scenario spec.
// Two cells share a hash exactly when equal (protocol, seed) would make
// their runs bit-identical — the condition under which a stored result
// may stand in for a fresh one.
func CellHash(base Config, sc Scenario) (string, error) {
	return cellHash(ModelVersion, base, sc)
}

// cellHash is CellHash under the given model version.
func cellHash(model int, base Config, sc Scenario) (string, error) {
	norm := base
	norm.Protocol, norm.Seed, norm.Workers, norm.TraceCSV = 0, 0, 0, nil
	cb, err := json.Marshal(norm)
	if err != nil {
		return "", fmt.Errorf("caem: hashing config: %w", err)
	}
	sb, err := json.Marshal(sc)
	if err != nil {
		return "", fmt.Errorf("caem: hashing scenario: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "model %d\x00", model)
	h.Write(cb)
	h.Write([]byte{0}) // unambiguous config/scenario boundary
	h.Write(sb)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// PutCell stores one completed campaign cell under the given content
// hash (from CellHash): PutCells with one cell.
func (cs *CampaignStore) PutCell(campaign, hash string, cell CampaignCell) error {
	return cs.PutCells([]CellPut{{Campaign: campaign, Hash: hash, Cell: cell}})
}

// CellPut is one cell of a PutCells batch. Campaign is informative
// provenance, kept from the first put of the cell — lookups go by
// content, so any later campaign with the same Hash (from CellHash)
// reuses the cell.
type CellPut struct {
	Campaign string
	Hash     string
	Cell     CampaignCell
}

// PutCells stores a batch of completed cells with one durable store
// write: one append and one fsync for the whole batch. A cell whose key
// the store already holds is not written again: its hash fixes its
// Result, so the stored row already equals the new one. On error no cell
// of the batch is acknowledged.
func (cs *CampaignStore) PutCells(puts []CellPut) error {
	if len(puts) == 0 {
		return nil
	}
	recs := make([]store.Record, len(puts))
	for i, p := range puts {
		recs[i] = store.Record{
			Campaign: p.Campaign,
			Hash:     p.Hash,
			Scenario: p.Cell.Scenario,
			Protocol: p.Cell.Protocol.String(),
			Seed:     p.Cell.Seed,
			Summary:  p.Summary(),
		}
	}
	return cs.s.PutBatch(recs)
}

// Summary returns the metric row PutCells stores for the cell: the row
// LookupSummary returns for it once written.
func (p CellPut) Summary() store.Summary { return summaryOf(p.Cell.Result) }

// HasCell reports whether the cell is stored.
func (cs *CampaignStore) HasCell(hash, scenario string, p Protocol, seed uint64) bool {
	return cs.s.Has(store.Key{Hash: hash, Scenario: scenario, Protocol: p.String(), Seed: seed})
}

// LookupCell returns the stored cell, if present, as a summary-level
// CampaignCell: the Result carries the headline metrics exactly as
// measured (floats round-trip bit-for-bit through the store) with
// Restored set, but not the bulky per-run detail (time series, per-node
// outcomes, round reports, energy breakdown).
func (cs *CampaignStore) LookupCell(hash, scenario string, p Protocol, seed uint64) (CampaignCell, bool, error) {
	s, ok, err := cs.LookupSummary(hash, scenario, p, seed)
	if err != nil || !ok {
		return CampaignCell{}, false, err
	}
	return SummaryCell(scenario, p, seed, s), true, nil
}

// LookupSummary returns the stored metric row of a cell, if present:
// the row that LookupCell projects through SummaryCell.
func (cs *CampaignStore) LookupSummary(hash, scenario string, p Protocol, seed uint64) (store.Summary, bool, error) {
	rec, ok, err := cs.s.Get(store.Key{Hash: hash, Scenario: scenario, Protocol: p.String(), Seed: seed})
	if err != nil || !ok {
		return store.Summary{}, false, err
	}
	return rec.Summary, true, nil
}

// SaveCampaignSpec persists an opaque campaign spec blob under id,
// durably when it returns — service metadata that lets caem-serve
// recover in-flight campaigns after a restart or a takeover.
func (cs *CampaignStore) SaveCampaignSpec(id string, blob []byte) error {
	return cs.s.PutCampaign(id, blob)
}

// LoadCampaignSpec returns the campaign spec blob stored under id.
func (cs *CampaignStore) LoadCampaignSpec(id string) ([]byte, error) {
	return cs.s.GetCampaign(id)
}

// CampaignIDs returns the ids of every stored campaign spec, sorted.
func (cs *CampaignStore) CampaignIDs() ([]string, error) {
	return cs.s.Campaigns()
}

// summaryOf projects a Result onto the stored metric set.
func summaryOf(r Result) store.Summary {
	return store.Summary{
		DurationSeconds:        r.DurationSeconds,
		Rounds:                 r.Rounds,
		TotalConsumedJ:         r.TotalConsumedJ,
		AvgRemainingJ:          r.AvgRemainingJ,
		AliveAtEnd:             r.AliveAtEnd,
		FirstDeathSeconds:      r.FirstDeathSeconds,
		FirstDeathValid:        r.FirstDeathValid,
		NetworkLifetimeSeconds: r.NetworkLifetimeSeconds,
		NetworkDead:            r.NetworkDead,
		EnergyPerPacketMilliJ:  r.EnergyPerPacketMilliJ,
		Generated:              r.Generated,
		Delivered:              r.Delivered,
		DroppedBuffer:          r.DroppedBuffer,
		DroppedRetry:           r.DroppedRetry,
		DeliveryRate:           r.DeliveryRate,
		ThroughputKbps:         r.ThroughputKbps,
		MeanDelayMs:            r.MeanDelayMs,
		P95DelayMs:             r.P95DelayMs,
		MaxDelayMs:             r.MaxDelayMs,
		QueueStdDev:            r.QueueStdDev,
		Collisions:             r.Collisions,
		ChannelFails:           r.ChannelFails,
	}
}

// SummaryCell builds the summary-level CampaignCell of a stored metric
// row: the projection behind LookupCell, and the one a caller
// holding rows of its own (such as the campaign service's results view)
// rehydrates them with.
func SummaryCell(scenario string, p Protocol, seed uint64, s store.Summary) CampaignCell {
	return CampaignCell{
		Scenario: scenario,
		Protocol: p,
		Seed:     seed,
		Restored: true,
		Result: Result{
			Protocol:               p,
			DurationSeconds:        s.DurationSeconds,
			Rounds:                 s.Rounds,
			TotalConsumedJ:         s.TotalConsumedJ,
			AvgRemainingJ:          s.AvgRemainingJ,
			AliveAtEnd:             s.AliveAtEnd,
			FirstDeathSeconds:      s.FirstDeathSeconds,
			FirstDeathValid:        s.FirstDeathValid,
			NetworkLifetimeSeconds: s.NetworkLifetimeSeconds,
			NetworkDead:            s.NetworkDead,
			EnergyPerPacketMilliJ:  s.EnergyPerPacketMilliJ,
			Generated:              s.Generated,
			Delivered:              s.Delivered,
			DroppedBuffer:          s.DroppedBuffer,
			DroppedRetry:           s.DroppedRetry,
			DeliveryRate:           s.DeliveryRate,
			ThroughputKbps:         s.ThroughputKbps,
			MeanDelayMs:            s.MeanDelayMs,
			P95DelayMs:             s.P95DelayMs,
			MaxDelayMs:             s.MaxDelayMs,
			QueueStdDev:            s.QueueStdDev,
			Collisions:             s.Collisions,
			ChannelFails:           s.ChannelFails,
		},
	}
}
