// Package caem is the public API of the CAEM reproduction: channel
// adaptive energy management for wireless sensor networks (Lin & Kwok,
// ICPP Workshops 2005).
//
// The package runs whole-network discrete-event simulations of a
// cluster-based (LEACH) sensor network under one of three protocols:
//
//   - PureLEACH — the baseline without channel-adaptive scheduling: a
//     node transmits whenever it holds a minimum burst and the channel is
//     idle, regardless of link quality.
//   - Scheme2 — CAEM with the transmission threshold fixed at the highest
//     ABICM class (2 Mbps): maximal energy saving, worst fairness.
//   - Scheme1 — CAEM with adaptive threshold adjustment driven by queue
//     dynamics: a balance between energy and service quality.
//
// A minimal run:
//
//	cfg := caem.DefaultConfig()
//	cfg.Protocol = caem.Scheme1
//	res, err := caem.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Summary())
//
// Everything is deterministic given Config.Seed: equal configurations
// produce bit-identical Results at any worker count, serial or
// parallel, fresh or pooled. That contract (see ARCHITECTURE.md) is
// what makes every higher layer trustworthy — parallel sweeps, resident
// context reuse, and resumed campaigns all promise byte-identical
// output.
//
// # Entry points
//
// Single runs: Run executes one configuration; RunScenario layers a
// declarative dynamic-world Scenario (node churn, traffic shifts,
// channel weather — see LoadScenario and LibraryScenarios) over it.
//
// Grids: RunComparison holds everything fixed and varies the protocol —
// the paper's core experimental pattern; RunSeeds replicates one
// configuration across seeds; RunCampaign expands a full scenario ×
// protocol × seed grid through the worker pool. AggregateCampaign and
// AggregateOf collapse replicated results into mean ± 95% CI summaries.
//
// Services: SimPool gives long-running callers a resident simulation
// context (reset in place between runs, never rebuilt). OpenStore opens
// the persistent campaign results store, which cmd/caem-serve, the
// always-on HTTP campaign service, settles the cells its cluster
// workers run into. RunCampaignWith adds a store sink plus
// checkpoint/resume on top of RunCampaign — the engine behind the
// -store/-resume flags of cmd/caem-sim.
package caem
