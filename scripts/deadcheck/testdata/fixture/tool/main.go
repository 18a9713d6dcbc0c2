// Command tool stands for a second module that uses the first.
package main

import "fixture/internal/lib"

func main() { lib.ToolOnly() }
