// Command obscheck is the observability lint gate (`make obs-check`):
// it assembles the repo's full metric catalog — every family the
// cluster coordinator, workers, results store, HTTP mux, and build-info
// stamp can emit — onto one registry, then fails the build unless
//
//  1. every family passes the naming lint (caem_ prefix, non-empty
//     help, counters end in _total, gauges and histograms do not,
//     histograms carry a unit suffix, no reserved label names), and
//  2. the registry's text exposition round-trips through the strict
//     Prometheus 0.0.4 parser the tests scrape with.
//
// The catalog is assembled from the same Register* functions production
// code uses, so a metric added anywhere in the tree is linted here
// automatically — there is no second list to keep in sync.
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	reg := obs.NewRegistry()
	cluster.RegisterMetrics(reg)
	journal.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	obs.RegisterBuildInfo(reg, "obscheck")

	if errs := reg.Lint("caem_"); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "obscheck: %v\n", e)
		}
		fmt.Fprintf(os.Stderr, "obscheck: metric catalog fails the naming lint (%d problems)\n", len(errs))
		os.Exit(1)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: writing exposition: %v\n", err)
		os.Exit(1)
	}
	exp, err := obs.ParseText(&buf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: exposition does not parse as Prometheus text 0.0.4: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("obs-check passed: %d metric families lint clean and round-trip the text exposition\n",
		len(exp.Families))
}
