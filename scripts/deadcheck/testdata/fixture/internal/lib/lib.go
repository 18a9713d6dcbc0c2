// Package lib declares one name of each kind the dead-code gate tells
// apart; cmd/app and the tool module are its users.
package lib

import "fmt"

func Dead() {} // no use

func countdown(n int) int { // calls only itself
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

type Counter struct{ n int }

func (c *Counter) Bump() { c.n++ }

func (c *Counter) Tested() int { return c.n } // only lib_test.go calls it

type Level int

func (l Level) String() string { return fmt.Sprintf("level %d", int(l)) } // reached through fmt

type Queue interface{ Claim() int }

type Remote struct{} // held as a Queue

func (Remote) Claim() int { return 1 }

func (Remote) Leader() string { return "remote" } // reached by an anonymous-interface assertion

type Base struct{}

func (Base) Hello() string { return "hello" }

type Outer struct{ Base } // Outer{}.Hello() uses the embedded field

func Hook() {} // allowlisted test hook

func ToolOnly() {} // only the tool module calls it
