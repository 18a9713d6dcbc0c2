package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("caem_test_events_total", "events")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative counter Add did not panic")
			}
		}()
		c.Add(-1)
	}()

	g := reg.Gauge("caem_test_depth", "depth")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("caem_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// Cumulative buckets: le=0.01 covers {0.005, 0.01} — equality lands
	// in the bucket.
	for _, want := range []string{
		`caem_test_latency_seconds_bucket{le="0.01"} 2`,
		`caem_test_latency_seconds_bucket{le="0.1"} 3`,
		`caem_test_latency_seconds_bucket{le="1"} 4`,
		`caem_test_latency_seconds_bucket{le="+Inf"} 5`,
		`caem_test_latency_seconds_count 5`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.CounterVec("caem_test_cells_total", "cells", "worker")
	b := reg.CounterVec("caem_test_cells_total", "cells", "worker")
	a.With("w1").Inc()
	b.With("w1").Inc()
	if got := a.With("w1").Value(); got != 2 {
		t.Fatalf("re-registered family did not share series: %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("conflicting re-registration did not panic")
			}
		}()
		reg.GaugeVec("caem_test_cells_total", "cells", "worker")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wrong label arity did not panic")
			}
		}()
		a.With("w1", "extra")
	}()
}

func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("caem_test_requests_total", "requests", "route", "code").
		With(`GET /x`, "200").Add(12)
	reg.Gauge("caem_test_queue_depth", `depth with "quotes" and \slashes`).Set(3)
	h := reg.Histogram("caem_test_rtt_seconds", "rtt", []float64{0.001, 0.01})
	h.Observe(0.002)
	RegisterBuildInfo(reg, "v-test")

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value("caem_test_requests_total", "route", "GET /x", "code", "200"); !ok || v != 12 {
		t.Fatalf("requests = %v (ok=%v), want 12", v, ok)
	}
	if v, ok := exp.Value("caem_test_queue_depth"); !ok || v != 3 {
		t.Fatalf("gauge = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := exp.Value("caem_test_rtt_seconds_bucket", "le", "0.01"); !ok || v != 1 {
		t.Fatalf("bucket = %v (ok=%v), want 1", v, ok)
	}
	if exp.Families["caem_build_info"] == nil {
		t.Fatal("build info family missing")
	}
	if fam := exp.Families["caem_test_rtt_seconds"]; fam.Type != TypeHistogram {
		t.Fatalf("rtt family type = %q", fam.Type)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"sample without TYPE":    "caem_x_total 1\n",
		"bad value":              "# TYPE caem_x_total counter\ncaem_x_total one\n",
		"unterminated labels":    "# TYPE caem_x_total counter\ncaem_x_total{a=\"b 1\n",
		"duplicate series":       "# TYPE caem_x_total counter\ncaem_x_total 1\ncaem_x_total 2\n",
		"suffix on counter":      "# TYPE caem_x_total counter\ncaem_x_total_sum 1\n",
		"histogram missing +Inf": "# TYPE caem_h histogram\ncaem_h_bucket{le=\"1\"} 1\ncaem_h_sum 1\ncaem_h_count 1\n",
		"histogram inf != count": "# TYPE caem_h histogram\ncaem_h_bucket{le=\"+Inf\"} 1\ncaem_h_sum 1\ncaem_h_count 2\n",
		"unknown type":           "# TYPE caem_x widget\ncaem_x 1\n",
		"bad escape":             "# TYPE caem_x counter\ncaem_x{a=\"\\q\"} 1\n",
		"trailing garbage":       "# TYPE caem_x_total counter\ncaem_x_total 1 extra stuff\n",
		"bare histogram sample":  "# TYPE caem_h histogram\ncaem_h 1\n",
		"duplicate label":        "# TYPE caem_x_total counter\ncaem_x_total{a=\"1\",a=\"2\"} 1\n",
	} {
		if _, err := ParseText(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, doc)
		}
	}
}

func TestLint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("caem_good_total", "fine")
	reg.Gauge("caem_good_depth", "fine")
	reg.Histogram("caem_good_seconds", "fine", LatencyBuckets)
	if errs := reg.Lint("caem_"); len(errs) != 0 {
		t.Fatalf("clean registry flagged: %v", errs)
	}

	bad := NewRegistry()
	bad.Counter("caem_missing_suffix", "counter without _total")
	bad.Gauge("caem_bogus_total", "gauge with _total")
	bad.Counter("other_prefix_total", "wrong prefix")
	bad.Counter("caem_nohelp_total", "   ")
	bad.Histogram("caem_unitless", "histogram without a unit", SizeBuckets)
	errs := bad.Lint("caem_")
	if len(errs) != 5 {
		t.Fatalf("lint found %d issues, want 5: %v", len(errs), errs)
	}
}

// TestRegistryRace hammers one registry from many goroutines — the
// package promise is race-clean instruments under -race.
func TestRegistryRace(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("caem_race_cells_total", "cells", "worker")
	g := reg.Gauge("caem_race_depth", "depth")
	h := reg.Histogram("caem_race_rtt_seconds", "rtt", LatencyBuckets)
	var wg sync.WaitGroup
	const workers, n = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := cv.With(string(rune('a' + id)))
			for i := 0; i < n; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) / n)
				if i%500 == 0 {
					var buf bytes.Buffer
					reg.WriteText(&buf) // concurrent scrape
				}
			}
		}(w)
	}
	wg.Wait()
	if total, _ := expositionSum(t, reg, "caem_race_cells_total"); total != workers*n {
		t.Fatalf("lost increments: %v, want %d", total, workers*n)
	}
	if count, _ := expositionSum(t, reg, "caem_race_rtt_seconds_count"); count != workers*n {
		t.Fatalf("histogram count = %v, want %d", count, workers*n)
	}
}

// TestHistogramScrapeConsistent: scrapes taken while other goroutines
// observe always parse, so every histogram's +Inf bucket equals its
// _count, and the last scrape counts every observation.
func TestHistogramScrapeConsistent(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("caem_scrape_batch_cells", "cells", SizeBuckets, "worker")
	const workers, n = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			hw := h.With(string(rune('a' + id)))
			for i := 0; i < n; i++ {
				hw.Observe(float64(i % 100))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scrapes := 0; ; scrapes++ {
		select {
		case <-done:
			if count, _ := expositionSum(t, reg, "caem_scrape_batch_cells_count"); count != workers*n {
				t.Fatalf("after %d scrapes: count = %v, want %d", scrapes, count, workers*n)
			}
			return
		default:
		}
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(&buf); err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
	}
}

func expositionSum(t *testing.T, reg *Registry, name string) (float64, bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return exp.Sum(name)
}

// TestInstrumentsDoNotAllocate pins the hot-path property the
// benchgate enforces at full scale: counter/gauge/histogram updates
// are allocation-free.
func TestInstrumentsDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("caem_alloc_total", "x")
	g := reg.Gauge("caem_alloc_depth", "x")
	h := reg.Histogram("caem_alloc_seconds", "x", LatencyBuckets)
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.01)
	}); n != 0 {
		t.Fatalf("instrument updates allocate %v per op, want 0", n)
	}
}
