package obs

import (
	"net/http"
	"runtime"
	"strconv"
	"time"
)

// HTTP-layer metric families. Registered get-or-create, so every
// wrapped route shares the same two families.
const (
	httpRequestsName = "caem_http_requests_total"
	httpLatencyName  = "caem_http_request_seconds"
)

// RegisterHTTPMetrics registers the per-route HTTP request counter and
// latency histogram families and returns them. Idempotent.
func RegisterHTTPMetrics(reg *Registry) (*CounterVec, *HistogramVec) {
	requests := reg.CounterVec(httpRequestsName,
		"HTTP requests served, by route pattern and status code.", "route", "code")
	latency := reg.HistogramVec(httpLatencyName,
		"HTTP request handling latency in seconds, by route pattern.", LatencyBuckets, "route")
	return requests, latency
}

// WrapHandler instruments an HTTP handler with a per-route request
// counter (labeled by status code) and latency histogram. route should
// be the mux pattern ("GET /v1/campaigns/{id}"), not the concrete URL —
// bounded label cardinality is what keeps the exposition scrapeable.
func WrapHandler(reg *Registry, route string, h http.Handler) http.Handler {
	requests, latency := RegisterHTTPMetrics(reg)
	hist := latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		hist.Observe(time.Since(start).Seconds())
		requests.With(route, strconv.Itoa(sw.code)).Inc()
	})
}

// statusWriter records the response status code. It forwards Flush so
// streaming handlers (the NDJSON progress feed) keep working through
// the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RegisterBuildInfo registers the caem_build_info gauge: constant 1,
// carrying the stamped build version and Go runtime version as labels
// — the standard Prometheus idiom for joining build metadata onto any
// other series.
func RegisterBuildInfo(reg *Registry, version string) {
	if version == "" {
		version = "dev"
	}
	reg.GaugeVec("caem_build_info",
		"Build metadata: constant 1 labeled with the stamped version and Go runtime.",
		"version", "goversion").With(version, runtime.Version()).Set(1)
}
