package runner

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
)

// Pool is a cache of resident simulation contexts keyed by configuration
// shape (node count). Instead of building a fresh world per run — the
// dominant fixed cost of a replication grid, whose cells differ only by
// seed — a Pool keeps one *core.Network per shape and resets it in place
// for each run: arenas, free lists, stream allocations, the link matrix,
// and metric storage all survive between runs.
//
// A Pool is NOT safe for concurrent use; give each worker goroutine its
// own (as Do does). Determinism is unaffected: a pooled Reset-then-Run
// is bit-identical to a fresh New-then-Run, so results do not depend on
// which jobs a worker's context previously executed.
type Pool struct {
	byShape map[int]*core.Network
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{byShape: make(map[int]*core.Network)} }

// Run executes one simulation on the pool's resident context for the
// configuration's shape, creating it on first use.
func (p *Pool) Run(cfg core.Config) core.Result {
	if net, ok := p.byShape[cfg.Nodes]; ok {
		net.Reset(cfg)
		return net.Run()
	}
	net := core.New(cfg)
	p.byShape[cfg.Nodes] = net
	return net.Run()
}

// Do runs fn(p, i) for every i in 0..n-1 on up to workers goroutines,
// the calling one included, and reports the lowest-indexed failure.
// 0 workers means one per CPU; 1 or a negative count runs every task
// serially on the calling goroutine; there are never more workers than
// tasks. Each worker owns one Pool for the whole batch, so fn must
// treat p as worker-private, and must be safe to call concurrently when
// more than one worker resolves. fn should write its result into a slot
// keyed by i: which worker runs which index depends on scheduling.
//
// Tasks start in index order, and once any task fails no new task
// starts; Do returns after the running ones finish. If the lowest
// failing index returned an error, Do returns that error; if it
// panicked, Do re-raises the panic on the calling goroutine, naming the
// index. Every index below a failing one has already started and runs
// to completion, so the reported failure is the same at every worker
// count.
func Do(workers, n int, fn func(p *Pool, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, n))

	var (
		mu       sync.Mutex
		next     int // the next index to start
		failed   = n // the lowest failing index; n while none has failed
		failedBy error
	)
	work := func() {
		pool := NewPool()
		for {
			mu.Lock()
			i := next
			if i == n || failed < n {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			if err := call(fn, pool, i); err != nil {
				mu.Lock()
				if i < failed {
					failed, failedBy = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if p, ok := failedBy.(taskPanic); ok {
		panic(fmt.Sprintf("runner: task %d panicked: %v", failed, p.val))
	}
	return failedBy
}

// taskPanic carries a recovered panic through Do's failure bookkeeping,
// so a panic and an error compete for the lowest index alike.
type taskPanic struct{ val any }

func (p taskPanic) Error() string { return fmt.Sprint(p.val) }

// call runs one task, returning a panic as a taskPanic.
func call(fn func(*Pool, int) error, p *Pool, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = taskPanic{r}
		}
	}()
	return fn(p, i)
}
