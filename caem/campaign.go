package caem

import (
	"errors"
	"fmt"

	"repro/internal/runner"
)

// ErrCampaignHalted is returned (wrapped) by RunCampaignWith when the
// campaign stopped at the MaxRuns checkpoint with cells still pending.
// The cells completed so far are persisted in the store; rerun with
// Resume to continue from the checkpoint.
var ErrCampaignHalted = errors.New("campaign halted at checkpoint; rerun with Resume to continue")

// CampaignOptions extends RunCampaign with persistence and
// checkpoint/resume semantics. The zero value reproduces RunCampaign
// exactly.
type CampaignOptions struct {
	// Store, when non-nil, receives every freshly completed cell as an
	// append-only record (the sink survives kills: each cell is synced
	// as it completes). A cell it already holds, rerun without Resume,
	// is not written twice: its hash fixes its Result.
	Store *CampaignStore
	// Resume skips cells already present in Store — matched by content
	// hash (CellHash), so only bit-identical reruns are reused — and
	// returns them as Restored summary-level cells. The resumed
	// campaign's cells and aggregates are byte-identical to an
	// uninterrupted run's: stored floats round-trip exactly. Requires
	// Store.
	Resume bool
	// MaxRuns, when positive, is a checkpoint budget: the campaign
	// executes at most this many fresh cells (the first MaxRuns pending
	// cells in submission order), persists them, and returns the
	// completed subset with ErrCampaignHalted. Requires Store — a halt
	// without persistence would just lose work.
	MaxRuns int
	// Campaign is the provenance id recorded on stored cells (optional).
	Campaign string
}

// RunCampaignWith is RunCampaign with a persistent store sink and
// checkpoint/resume: the scenario × protocol × seed grid expands in the
// same submission order (scenario-major, then protocol, then seed) and
// executes through the worker pool with bit-identical results at every
// worker count, but completed cells stream into opts.Store and, with
// opts.Resume, previously stored cells are restored instead of re-run.
//
// On a clean completion the returned slice covers the full grid; cells
// that were restored from the store carry summary-level Results (the
// headline metrics, exactly as first measured) with Restored set, so
// per-cell reports and AggregateCampaign output are byte-identical to
// an uninterrupted run. On a MaxRuns halt the slice covers only the
// cells that have results, and the error wraps ErrCampaignHalted. When
// a cell fails, no further cell starts and the lowest-indexed failing
// cell's error is returned at every worker count; the cells stored
// before it stay stored, so a Resume rerun continues from them.
func RunCampaignWith(base Config, scs []Scenario, protocols []Protocol, seeds []uint64, opts CampaignOptions) ([]CampaignCell, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("caem: campaign needs at least one scenario")
	}
	if base.TraceCSV != nil {
		return nil, fmt.Errorf("caem: campaigns cannot stream traces from concurrent runs")
	}
	if opts.Store == nil && (opts.Resume || opts.MaxRuns > 0) {
		return nil, fmt.Errorf("caem: CampaignOptions.Resume/MaxRuns need a Store")
	}
	if len(protocols) == 0 {
		protocols = Protocols()
	}
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}

	// Expand the grid in submission order and compute each scenario's
	// cell-family content hash once.
	cells := make([]CampaignCell, 0, len(scs)*len(protocols)*len(seeds))
	scFor := make([]Scenario, 0, cap(cells))
	hashFor := make([]string, 0, cap(cells))
	for _, sc := range scs {
		var hash string
		if opts.Store != nil {
			var err error
			if hash, err = CellHash(base, sc); err != nil {
				return nil, err
			}
		}
		for _, p := range protocols {
			for _, seed := range seeds {
				cells = append(cells, CampaignCell{Scenario: sc.Name, Protocol: p, Seed: seed})
				scFor = append(scFor, sc)
				hashFor = append(hashFor, hash)
			}
		}
	}

	// Restore already-stored cells instead of re-running them.
	pending := make([]int, 0, len(cells))
	for i := range cells {
		if opts.Resume {
			cell, ok, err := opts.Store.LookupCell(hashFor[i], cells[i].Scenario, cells[i].Protocol, cells[i].Seed)
			if err != nil {
				return nil, err
			}
			if ok {
				cells[i] = cell
				continue
			}
		}
		pending = append(pending, i)
	}

	// A checkpoint budget truncates the pending set deterministically:
	// the first MaxRuns pending cells in submission order run, the rest
	// wait for the resumed invocation.
	halted := false
	if opts.MaxRuns > 0 && len(pending) > opts.MaxRuns {
		pending = pending[:opts.MaxRuns]
		halted = true
	}

	results, err := runVariants(base.Workers, len(pending),
		func(j int) string {
			c := cells[pending[j]]
			return fmt.Sprintf("%s/%s/seed %d", c.Scenario, c.Protocol, c.Seed)
		},
		func(p *runner.Pool, j int) (Result, error) {
			i := pending[j]
			cc := base
			cc.Protocol = cells[i].Protocol
			cc.Seed = cells[i].Seed
			cc.Workers = 1 // the grid is the parallel unit
			res, err := runScenarioPooled(p, scFor[i], cc)
			if err != nil {
				return Result{}, err
			}
			if opts.Store != nil {
				cell := cells[i]
				cell.Result = res
				if err := opts.Store.PutCell(opts.Campaign, hashFor[i], cell); err != nil {
					return Result{}, err
				}
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	for j, i := range pending {
		cells[i].Result = results[j]
	}
	if halted {
		done := make([]CampaignCell, 0, len(pending))
		ran := make(map[int]bool, len(pending))
		for _, i := range pending {
			ran[i] = true
		}
		for i, c := range cells {
			if c.Restored || ran[i] {
				done = append(done, c)
			}
		}
		return done, fmt.Errorf("caem: %w (%d of %d cells done)", ErrCampaignHalted, len(done), len(cells))
	}
	return cells, nil
}
