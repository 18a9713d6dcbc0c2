// Command app is the fixture's program: what it uses is live.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var c lib.Counter
	c.Bump()
	var q lib.Queue = lib.Remote{}
	if r, ok := q.(interface{ Leader() string }); ok {
		fmt.Println(lib.Level(2), lib.Outer{}.Hello(), q.Claim(), r.Leader())
	}
}

func helper() string { return "never called" } // no use; main is exempt
