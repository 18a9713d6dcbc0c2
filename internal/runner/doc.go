// Package runner fans independent simulation runs out across worker
// goroutines. Every experiment in the paper's evaluation is a grid of
// fully independent runs (protocol × load × seed), and each run roots all
// of its randomness in its own rng.Source derived from Config.Seed — so a
// parallel execution is bit-identical to a serial one, provided each task
// writes its result into the slot of its own index.
//
// Do is the one executor, used by the paper figures (internal/experiment)
// and by every caem grid (RunComparison, RunSeeds, RunCampaignWith). It
// runs tasks 0..n-1 under one worker policy (0 = NumCPU, 1 or negative =
// serial on the caller's goroutine, never more workers than tasks) and
// hands each worker its own Pool of resident simulation contexts, so
// consecutive tasks on one worker reset a kept world in place instead of
// rebuilding it (the run-reuse engine; see Pool).
//
// # Failure policy
//
// Tasks start in index order, and once any task fails no new task
// starts. The lowest-indexed failure is reported: an error is returned,
// a panic is re-raised on the caller with its index. Because indices
// start in order, every index below a failing one has already started
// and runs to completion, so the reported failure is the same at every
// worker count.
package runner
