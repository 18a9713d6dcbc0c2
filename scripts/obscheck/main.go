// Command obscheck is the observability lint gate (`make obs-check`):
// it assembles the repo's full metric catalog — every family the
// cluster coordinator, workers, results store, HTTP mux, and build-info
// stamp can emit — onto one registry, gives each family without a
// series a placeholder one, then fails the build unless
//
//  1. every family passes the naming lint (caem_ prefix, non-empty
//     help, counters end in _total, gauges and histograms do not,
//     histograms carry a unit suffix, no reserved label names),
//  2. the registry's text exposition round-trips through the strict
//     Prometheus 0.0.4 parser the tests scrape with, every registered
//     family included, and
//  3. the registered families are exactly the family column of the
//     metric table in ARCHITECTURE.md, both ways.
//
// The catalog is assembled from the same Register* functions production
// code uses, so a metric added anywhere in the tree is linted here
// automatically, and the documented table cannot keep a family the code
// dropped or miss one it added. Run it from the module root.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
	"repro/internal/store"
)

// catalogDoc holds the documented metric table.
const catalogDoc = "ARCHITECTURE.md"

func main() {
	reg := obs.NewRegistry()
	cluster.RegisterMetrics(reg)
	journal.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	obs.RegisterBuildInfo(reg, "obscheck")
	names := reg.Exemplify()

	if errs := reg.Lint("caem_"); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "obscheck: %v\n", e)
		}
		fail("metric catalog fails the naming lint (%d problems)", len(errs))
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		fail("writing exposition: %v", err)
	}
	exp, err := obs.ParseText(&buf)
	if err != nil {
		fail("exposition does not parse as Prometheus text 0.0.4: %v", err)
	}
	if missing := diff(names, slices.Sorted(slices.Values(exp.Order))); len(missing) > 0 {
		fail("registered families missing from the exposition: %v", missing)
	}

	documented, err := tableFamilies(catalogDoc)
	if err != nil {
		fail("%v", err)
	}
	missing, stale := diff(names, documented), diff(documented, names)
	for _, n := range missing {
		fmt.Fprintf(os.Stderr, "obscheck: %s is registered but has no row in %s's metric table\n", n, catalogDoc)
	}
	for _, n := range stale {
		fmt.Fprintf(os.Stderr, "obscheck: %s has a row in %s's metric table but is not registered\n", n, catalogDoc)
	}
	if len(missing)+len(stale) > 0 {
		fail("the metric catalog and %s's table differ", catalogDoc)
	}
	fmt.Printf("obs-check passed: %d metric families lint clean, round-trip the text exposition, and match %s's metric table\n",
		len(names), catalogDoc)
}

// tableFamilies returns the family column of the markdown table that
// follows the "**Metric catalog.**" paragraph of path: the first
// backquoted name of each row.
func tableFamilies(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	inCatalog, inTable := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "**Metric catalog.**"):
			inCatalog = true
		case inCatalog && strings.HasPrefix(line, "|"):
			inTable = true
			if _, rest, ok := strings.Cut(line, "`"); ok {
				if name, _, ok := strings.Cut(rest, "`"); ok {
					names = append(names, name)
				}
			}
		case inTable:
			inCatalog, inTable = false, false
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s has no metric table after its **Metric catalog.** paragraph", path)
	}
	slices.Sort(names)
	return names, nil
}

// diff returns the names of a (sorted) that b (sorted) lacks.
func diff(a, b []string) []string {
	var out []string
	for _, n := range a {
		if _, found := slices.BinarySearch(b, n); !found {
			out = append(out, n)
		}
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obscheck: "+format+"\n", args...)
	os.Exit(1)
}
