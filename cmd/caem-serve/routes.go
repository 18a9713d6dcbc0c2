package main

import "net/http"

// apiRoute is one row of the service's route table: the method, the
// path below /v1, and the one-line contract recorded in the api-check
// golden.
type apiRoute struct {
	Method string
	Path   string
	Doc    string
}

// routeTable is the single source of truth for the API surface: every
// row is mounted once, at /v1, and nothing else of the API is.
// mountAPI wires the campaign rows; the lease and cluster rows are
// mounted by cluster.RegisterHTTPObserved under the same conventions
// and are listed here so the golden covers the whole surface.
// TestAPIRouteTable locks this table against testdata/api_routes.golden
// and checks it against a live server both ways — every row mounted,
// nothing else instrumented — so changing the API without updating the
// golden fails `make api-check`.
//
// /debug/pprof/ stays unversioned by Go convention (tooling hardcodes
// the path), as does the worker-mode observability listener.
var routeTable = []apiRoute{
	{"GET", "/healthz", "liveness + store stats + build version"},
	{"POST", "/campaigns", "submit a campaign (idempotent: equal requests map to one id)"},
	{"GET", "/campaigns", "list campaigns; page_size, page_token"},
	{"GET", "/campaigns/{id}", "status: per-cell states + counters"},
	{"GET", "/campaigns/{id}/results", "queryable results; scenario, protocol, metric, min, max, top, percentiles, page_size, page_token"},
	{"GET", "/campaigns/{id}/progress", "NDJSON progress stream"},
	{"GET", "/metrics", "Prometheus text-format exposition"},
	{"GET", "/cluster/status", "work queue, leases, workers, poisons"},
	{"GET", "/cluster/leader", "leadership: current leader URL, epoch, role"},
	{"POST", "/leases/claim", "lease protocol: claim a cell batch"},
	{"POST", "/leases/{id}/renew", "lease protocol: heartbeat"},
	{"POST", "/leases/{id}/complete", "lease protocol: settle results"},
	{"POST", "/leases/{id}/release", "lease protocol: return unfinished cells"},
}

// mountAPI wires the campaign-service rows of the route table. Rows
// without a handler here belong to the coordinator, which mounts them
// itself (cluster.RegisterHTTPObserved).
func (s *server) mountAPI() {
	handlers := map[string]http.HandlerFunc{
		"GET /healthz":                 s.handleHealth,
		"POST /campaigns":              s.handleCreate,
		"GET /campaigns":               s.handleList,
		"GET /campaigns/{id}":          s.handleStatus,
		"GET /campaigns/{id}/results":  s.handleResults,
		"GET /campaigns/{id}/progress": s.handleProgress,
		"GET /cluster/leader":          s.handleLeader,
		"GET /metrics":                 s.reg.Handler().ServeHTTP,
	}
	for _, rt := range routeTable {
		if h, ok := handlers[rt.Method+" "+rt.Path]; ok {
			s.handle(rt.Method+" /v1"+rt.Path, h)
		}
	}
}
