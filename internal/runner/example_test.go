package runner_test

import (
	"errors"
	"fmt"

	"repro/internal/runner"
)

// Do fans tasks 0..n-1 across workers; per-index results land in
// per-index slots, so the output never depends on scheduling. A failing
// task stops the batch, and the lowest failing index is reported at
// every worker count.
func ExampleDo() {
	squares := make([]int, 6)
	err := runner.Do(3, len(squares), func(_ *runner.Pool, i int) error {
		squares[i] = i * i
		return nil
	})
	fmt.Println(squares, err)

	err = runner.Do(3, 100, func(_ *runner.Pool, i int) error {
		if i == 4 {
			return errors.New("task 4 failed")
		}
		return nil
	})
	fmt.Println(err)
	// Output:
	// [0 1 4 9 16 25] <nil>
	// task 4 failed
}
