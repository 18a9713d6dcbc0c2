// Command benchgate is the CI bench-regression guard and comparator: it
// runs the gated benchmarks (ns per simulated second for the static,
// scenario, and generated-scenario engines, the Figure 9 replication
// grid, the obs instrument hot path, and the store query path) and
// checks both time (ns/op) and allocation (allocs/op) results against
// the committed baseline. The time factor
// is deliberately loose — CI runners are noisy shared machines — so
// only order-of-magnitude regressions (an accidentally quadratic hot
// path, a reintroduced per-event allocation storm) trip it, not
// scheduler jitter. Allocation counts are nearly deterministic, so
// their factor is tighter — and benchmarks matched by -exactallocs get
// no factor at all: measured allocs/op must equal the baseline
// exactly. That is how the repo pins the simulated-second hot path at
// 4 allocs/op and the metrics update path at 0.
//
// Usage (from the repository root):
//
//	go run ./scripts/benchgate -baseline BENCH_7.json -factor 2.5 -allocfactor 2.0 \
//	    -exactallocs '^(BenchmarkSimulatedSecond/|BenchmarkMetricsHotPath$)'
//	go run ./scripts/benchgate -baseline BENCH_7.json -gate=false -report out/bench-compare.txt
//
// The second form is `make bench-compare`: it never fails the build; it
// prints (and optionally writes) a benchstat-style delta table of the
// PR's numbers against the committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metric is one benchmark's baseline or measured numbers.
type metric struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// baseline mirrors the slice of the BENCH_*.json schema the gate
// consumes: per-protocol numbers for the static hot path, and single
// results for the scenario engine, the Figure 9 replication grid, the
// obs instrument hot path, and the store query path.
type baseline struct {
	Benchmarks struct {
		SimulatedSecond struct {
			After map[string]metric `json:"after"`
		} `json:"BenchmarkSimulatedSecond"`
		ScenarioSecond struct {
			Result metric `json:"result"`
		} `json:"BenchmarkScenarioSecond"`
		GeneratedScenarioSecond struct {
			Result metric `json:"result"`
		} `json:"BenchmarkGeneratedScenarioSecond"`
		Figure9 struct {
			Result metric `json:"result"`
		} `json:"BenchmarkFigure9_NodesAlive"`
		MetricsHotPath struct {
			Result metric `json:"result"`
		} `json:"BenchmarkMetricsHotPath"`
		QueryTopK struct {
			Result metric `json:"result"`
		} `json:"BenchmarkQueryTopK"`
	} `json:"benchmarks"`
}

// series is one gated benchmark run configuration: which benchmarks and
// at what benchtime. The benchtime MUST match the one the baseline was
// recorded at — the per-second cost is horizon-dependent (the network
// dies partway through a long run and dead seconds are nearly free), so
// comparing across benchtimes skews the ratio.
type series struct {
	pattern   string
	benchtime string
}

var gatedSeries = []series{
	{pattern: "^(BenchmarkSimulatedSecond|BenchmarkScenarioSecond|BenchmarkGeneratedScenarioSecond)$", benchtime: "1000x"},
	{pattern: "^BenchmarkFigure9_NodesAlive$", benchtime: "3x"},
	{pattern: "^BenchmarkMetricsHotPath$", benchtime: "100000x"},
	{pattern: "^BenchmarkQueryTopK$", benchtime: "100x"},
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_7.json", "committed baseline JSON with the reference values")
		factor       = flag.Float64("factor", 2.5, "fail when measured ns/op exceeds factor x baseline")
		allocFactor  = flag.Float64("allocfactor", 2.0, "fail when measured allocs/op exceeds allocfactor x baseline (allocation counts are nearly deterministic, so this is tighter than the time factor)")
		exactAllocs  = flag.String("exactallocs", "", "regexp of benchmark names whose measured allocs/op must equal the baseline exactly — no factor slack (empty disables)")
		gate         = flag.Bool("gate", true, "fail on regressions; false = compare-only (always exit 0)")
		report       = flag.String("report", "", "also write the delta table to this file (for CI artifacts)")
	)
	flag.Parse()

	var exactRe *regexp.Regexp
	if *exactAllocs != "" {
		var err error
		if exactRe, err = regexp.Compile(*exactAllocs); err != nil {
			fatal("bad -exactallocs pattern: %v", err)
		}
	}

	refs, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal("loading baseline: %v", err)
	}
	if len(refs) == 0 {
		fatal("baseline %s holds no recognizable entries", *baselinePath)
	}

	got := make(map[string]metric)
	for _, s := range gatedSeries {
		m, raw, err := runBenchmarks(s.pattern, s.benchtime)
		if err != nil {
			fatal("running benchmarks %s: %v\n%s", s.pattern, err, raw)
		}
		for k, v := range m {
			got[k] = v
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %14s %14s %8s   %12s %12s %8s\n",
		"benchmark", "base ns/op", "new ns/op", "delta", "base allocs", "new allocs", "delta")
	failed := false
	for _, name := range sortedKeys(refs) {
		ref := refs[name]
		m, ok := got[name]
		if !ok {
			fmt.Fprintf(&b, "%-42s %14.0f %14s %8s   %12.0f %12s %8s\n",
				name, ref.NsOp, "MISSING", "-", ref.AllocsOp, "MISSING", "-")
			failed = true
			continue
		}
		nsVerdict := ""
		if ref.NsOp > 0 && m.NsOp/ref.NsOp > *factor {
			nsVerdict = " REGRESSION"
			failed = true
		}
		allocVerdict := ""
		if exactRe != nil && exactRe.MatchString(name) {
			if m.AllocsOp != ref.AllocsOp {
				allocVerdict = " ALLOC-EXACT-MISMATCH"
				failed = true
			}
		} else if ref.AllocsOp > 0 && m.AllocsOp/ref.AllocsOp > *allocFactor {
			allocVerdict = " ALLOC-REGRESSION"
			failed = true
		}
		fmt.Fprintf(&b, "%-42s %14.0f %14.0f %+7.1f%%   %12.0f %12.0f %+7.1f%%%s%s\n",
			name, ref.NsOp, m.NsOp, delta(ref.NsOp, m.NsOp),
			ref.AllocsOp, m.AllocsOp, delta(ref.AllocsOp, m.AllocsOp),
			nsVerdict, allocVerdict)
	}
	fmt.Print(b.String())
	if *report != "" {
		if err := os.WriteFile(*report, []byte(b.String()), 0o644); err != nil {
			fatal("writing -report: %v", err)
		}
		fmt.Printf("wrote %s\n", *report)
	}
	if !*gate {
		fmt.Printf("bench compare done (gating disabled) against %s\n", *baselinePath)
		return
	}
	if failed {
		fatal("bench gate FAILED: a benchmark regressed beyond %.1fx ns/op or %.1fx allocs/op of its %s baseline, broke an -exactallocs pin, or went missing",
			*factor, *allocFactor, *baselinePath)
	}
	fmt.Printf("bench gate passed: every series within %.1fx ns/op and %.1fx allocs/op of %s (exact-alloc pins held)\n",
		*factor, *allocFactor, *baselinePath)
}

// delta returns the percentage change from ref to measured.
func delta(ref, measured float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (measured - ref) / ref
}

func loadBaseline(path string) (map[string]metric, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, err
	}
	refs := make(map[string]metric)
	for proto, v := range b.Benchmarks.SimulatedSecond.After {
		if v.NsOp > 0 {
			refs["BenchmarkSimulatedSecond/"+proto] = v
		}
	}
	if v := b.Benchmarks.ScenarioSecond.Result; v.NsOp > 0 {
		refs["BenchmarkScenarioSecond"] = v
	}
	if v := b.Benchmarks.GeneratedScenarioSecond.Result; v.NsOp > 0 {
		refs["BenchmarkGeneratedScenarioSecond"] = v
	}
	if v := b.Benchmarks.Figure9.Result; v.NsOp > 0 {
		refs["BenchmarkFigure9_NodesAlive"] = v
	}
	if v := b.Benchmarks.MetricsHotPath.Result; v.NsOp > 0 {
		refs["BenchmarkMetricsHotPath"] = v
	}
	if v := b.Benchmarks.QueryTopK.Result; v.NsOp > 0 {
		refs["BenchmarkQueryTopK"] = v
	}
	return refs, nil
}

// runBenchmarks executes one gated series and returns measured metrics
// keyed by benchmark name (GOMAXPROCS suffix stripped).
func runBenchmarks(pattern, benchtime string) (map[string]metric, string, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", benchtime, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, string(out), err
	}
	got := make(map[string]metric)
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcSuffix(fields[0])
		var m metric
		for i := 2; i+1 < len(fields); i++ {
			v, perr := strconv.ParseFloat(fields[i], 64)
			if perr != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = v
			case "allocs/op":
				m.AllocsOp = v
			}
		}
		if m.NsOp > 0 {
			got[name] = m
		}
	}
	return got, string(out), nil
}

// stripProcSuffix removes the trailing "-<GOMAXPROCS>" from a
// benchmark name ("BenchmarkScenarioSecond-8" → "BenchmarkScenarioSecond").
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
