package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/sim"
)

// testConfigs builds a small protocol × seed grid of fast, fully
// independent runs — the shape every experiment sweep has.
func testConfigs() []core.Config {
	var cfgs []core.Config
	for _, policy := range []queueing.ThresholdPolicy{
		queueing.PolicyNone, queueing.PolicyAdaptive, queueing.PolicyFixedHighest,
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			cfg := core.DefaultConfig()
			cfg.Nodes = 20
			cfg.FieldWidth, cfg.FieldHeight = 45, 45
			cfg.Horizon = 25 * sim.Second
			cfg.SampleInterval = 5 * sim.Second
			cfg.Policy = policy
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// runAll runs every configuration on its worker's pool, the way the
// experiment grids do, and returns the results in submission order.
func runAll(workers int, cfgs []core.Config) []core.Result {
	results := make([]core.Result, len(cfgs))
	if err := Do(workers, len(cfgs), func(p *Pool, i int) error {
		results[i] = p.Run(cfgs[i])
		return nil
	}); err != nil {
		panic(err)
	}
	return results
}

// Parallel execution must be bit-identical to serial: each run owns its
// rng.Source, so worker count and completion order cannot leak into the
// results.
func TestParallelMatchesSerial(t *testing.T) {
	cfgs := testConfigs()
	serial := runAll(1, cfgs)
	for _, workers := range []int{0, 2, 4, 16} {
		parallel := runAll(workers, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Fatalf("workers=%d: run %d diverged from the serial run", workers, i)
			}
		}
	}
}

// Results must come back in submission order even when completion order
// differs: each run gets a distinct horizon, which its result echoes back
// as Elapsed (no node dies within these short runs).
func TestSubmissionOrderPreserved(t *testing.T) {
	cfgs := testConfigs()
	for i := range cfgs {
		cfgs[i].Horizon = sim.Time(20+i) * sim.Second
	}
	res := runAll(4, cfgs)
	if len(res) != len(cfgs) {
		t.Fatalf("got %d results for %d runs", len(res), len(cfgs))
	}
	for i, c := range cfgs {
		if res[i].Elapsed != c.Horizon {
			t.Fatalf("result %d has Elapsed %v, want run %d's horizon %v", i, res[i].Elapsed, i, c.Horizon)
		}
	}
}

// Worker-count edge cases: zero (NumCPU), more workers than runs, a
// single run, and no runs at all.
func TestWorkerEdgeCases(t *testing.T) {
	cfgs := testConfigs()
	want := runAll(1, cfgs)

	for _, workers := range []int{0, len(cfgs) + 50} {
		if got := runAll(workers, cfgs); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged", workers)
		}
	}
	one := runAll(8, cfgs[:1])
	if len(one) != 1 || !reflect.DeepEqual(one[0], want[0]) {
		t.Fatal("single-run batch diverged")
	}
	if got := runAll(8, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// An invalid configuration panics inside the simulation; the panic
// must surface on the caller, not crash a worker goroutine, and name
// the run's index.
func TestPanicPropagates(t *testing.T) {
	cfgs := testConfigs()
	cfgs[2].Nodes = 0 // invalid: core.New panics
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("invalid run did not panic the caller")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "task 2 ") {
			t.Fatalf("panic %q does not name task 2", s)
		}
	}()
	runAll(4, cfgs)
}

// Every index runs exactly once under every worker policy, and an empty
// batch never calls fn.
func TestDo(t *testing.T) {
	for _, workers := range []int{1, 0, 3, 100, -2} {
		runs := make([]atomic.Int32, 50)
		if err := Do(workers, len(runs), func(_ *Pool, i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
	if err := Do(4, 0, func(*Pool, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A panic re-raises on the caller, naming the lowest failing index and
// carrying its value, at every worker count.
func TestDoCapturesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				s := fmt.Sprint(recover())
				if !strings.Contains(s, "task 3 ") || !strings.Contains(s, "boom-3") {
					t.Fatalf("workers=%d: panic %q, want task 3's boom-3", workers, s)
				}
			}()
			Do(workers, 10, func(_ *Pool, i int) error {
				if i == 3 || i == 7 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return nil
			})
		}()
	}
}

// The lowest failing index wins even when a higher index fails first:
// task 1 fails only after task 3 has failed.
func TestLowestFailureWins(t *testing.T) {
	for _, workers := range []int{2, 4} {
		threeFailed := make(chan struct{})
		err := Do(workers, 10, func(_ *Pool, i int) error {
			switch i {
			case 1:
				<-threeFailed
				return fmt.Errorf("fail-%d", i)
			case 3:
				close(threeFailed)
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-1" {
			t.Fatalf("workers=%d: err = %v, want fail-1", workers, err)
		}
	}
}

// After a failure no new task starts: with task 0 failing while the
// others wait for it, only the tasks already running can have started.
func TestFailureStopsNewTasks(t *testing.T) {
	const n = 1000
	failed := make(chan struct{})
	var started atomic.Int32
	err := Do(4, n, func(_ *Pool, i int) error {
		started.Add(1)
		if i == 0 {
			close(failed)
			return errors.New("fail-0")
		}
		<-failed
		return nil
	})
	if err == nil || err.Error() != "fail-0" {
		t.Fatalf("err = %v, want fail-0", err)
	}
	if s := started.Load(); s > n/10 {
		t.Fatalf("%d of %d tasks started around a failure at task 0", s, n)
	}
}

// Serially, exactly the indices up to the failing one run.
func TestSerialStopsAtFailure(t *testing.T) {
	const k = 4
	for _, workers := range []int{1, -1} {
		var ran []int
		err := Do(workers, 10, func(_ *Pool, i int) error {
			ran = append(ran, i)
			if i == k {
				return errors.New("fail")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(ran, want) {
			t.Fatalf("workers=%d: ran %v, want %v", workers, ran, want)
		}
	}
}
