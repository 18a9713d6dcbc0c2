package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// routeTableText renders the route table in the golden-file format.
func routeTableText() string {
	var sb strings.Builder
	sb.WriteString("# caem-serve /v1 API surface.\n")
	sb.WriteString("# Regenerate: go test ./cmd/caem-serve -run TestAPIRouteTable -update\n")
	for _, rt := range routeTable {
		fmt.Fprintf(&sb, "%-4s /v1%-33s %s\n", rt.Method, rt.Path, rt.Doc)
	}
	return sb.String()
}

// isMuxMiss reports whether a response came from the mux's own
// not-found handler rather than a mounted route.
func isMuxMiss(resp *http.Response) bool {
	return resp.StatusCode == http.StatusNotFound &&
		!strings.Contains(resp.Header.Get("Content-Type"), "json")
}

// probe sends a bodyless request and returns the response with its
// body closed.
func probe(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestAPIRouteTable is the api-check gate: the route table must match
// the committed golden byte-for-byte and be exactly the mounted API of
// a live server, checked both ways. Every row answers at /v1 and its
// unversioned path is the mux's own 404; and the routes a fresh
// server's /v1/metrics lists on caem_http_request_seconds — every
// mounted route pre-registers its series — are exactly the rows.
func TestAPIRouteTable(t *testing.T) {
	goldenPath := filepath.Join("testdata", "api_routes.golden")
	got := routeTableText()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("route table drifted from %s — update the golden if the API change is intentional.\n--- got\n%s--- want\n%s",
			goldenPath, got, want)
	}

	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	rows := map[string]bool{}
	for _, rt := range routeTable {
		rows[rt.Method+" /v1"+rt.Path] = true
	}
	fam := scrapeMetrics(t, ts.URL+"/v1").Families["caem_http_request_seconds"]
	if fam == nil {
		t.Fatal("caem_http_request_seconds missing from a fresh server's exposition")
	}
	instrumented := map[string]bool{}
	for _, s := range fam.Samples {
		instrumented[s.Labels["route"]] = true
	}
	for route := range instrumented {
		if !rows[route] {
			t.Errorf("route %q is mounted but not in the route table", route)
		}
	}
	for route := range rows {
		if !instrumented[route] {
			t.Errorf("route table row %q has no instrumented mount", route)
		}
	}

	for _, rt := range routeTable {
		path := strings.ReplaceAll(rt.Path, "{id}", "zzz")
		if isMuxMiss(probe(t, rt.Method, ts.URL+"/v1"+path)) {
			t.Errorf("%s /v1%s: route not mounted", rt.Method, rt.Path)
		}
		if resp := probe(t, rt.Method, ts.URL+path); !isMuxMiss(resp) {
			t.Errorf("%s %s: unversioned path answered %d, want the mux's 404", rt.Method, path, resp.StatusCode)
		}
	}
}

// TestStandbySurface drives standbyMux, the surface a coordinator
// serves until it leads: health that says standby, metrics, the leader
// lookup workers re-target with, and 503 unavailable for every other
// route-table row, at /v1 and unversioned alike.
func TestStandbySurface(t *testing.T) {
	const primary = "http://primary.invalid:8080"
	lockPath := filepath.Join(t.TempDir(), "leader.lock")
	ts := httptest.NewServer(standbyMux(obs.NewRegistry(), lockPath, primary))
	defer ts.Close()

	var health struct {
		Role  string `json:"role"`
		Ready bool   `json:"ready"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK || health.Role != "standby" || health.Ready {
		t.Fatalf("healthz = HTTP %d %+v, want 200, role standby, not ready", code, health)
	}
	scrapeMetrics(t, ts.URL+"/v1")

	leader := func() cluster.LeaderInfo {
		var info cluster.LeaderInfo
		if code := getJSON(t, ts.URL+"/v1/cluster/leader", &info); code != http.StatusOK {
			t.Fatalf("cluster/leader: HTTP %d", code)
		}
		return info
	}
	if got, want := leader(), (cluster.LeaderInfo{LeaderURL: primary, Role: "standby"}); got != want {
		t.Fatalf("leader before any lock file = %+v, want the primary hint %+v", got, want)
	}
	lock := &cluster.LeaderLock{Path: lockPath, Holder: "primary-1", URL: "http://leader.invalid:8080"}
	epoch, err := lock.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := leader(), (cluster.LeaderInfo{LeaderURL: lock.URL, Epoch: epoch, Role: "standby"}); got != want {
		t.Fatalf("leader after TryAcquire = %+v, want the lock file's %+v", got, want)
	}

	served := map[string]bool{"GET /healthz": true, "GET /metrics": true, "GET /cluster/leader": true}
	for _, rt := range routeTable {
		path := strings.ReplaceAll(rt.Path, "{id}", "zzz")
		paths := []string{path}
		if !served[rt.Method+" "+rt.Path] {
			paths = append(paths, "/v1"+path)
		}
		for _, p := range paths {
			req, err := http.NewRequest(rt.Method, ts.URL+p, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s %s: HTTP %d, Retry-After %q; want 503 with Retry-After",
					rt.Method, p, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if env := errorEnvelope(t, resp); env.Code != api.CodeUnavailable {
				t.Errorf("%s %s: code %q, want %q", rt.Method, p, env.Code, api.CodeUnavailable)
			}
		}
	}
}

// errorEnvelope decodes the uniform error body.
func errorEnvelope(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	var body struct {
		Error api.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("response is not the error envelope: %v", err)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", body.Error)
	}
	return body.Error
}

// TestErrorEnvelope: every failure mode answers with
// {"error":{"code","message","details"}} and a stable code.
func TestErrorEnvelope(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"unknown campaign", "GET", "/v1/campaigns/nope", "", 404, api.CodeNotFound},
		{"bad request body", "POST", "/v1/campaigns", "{", 400, api.CodeInvalidRequest},
		{"bad page_size", "GET", "/v1/campaigns?page_size=-1", "", 400, api.CodeInvalidRequest},
		{"bad page_token", "GET", "/v1/campaigns?page_token=%21%21", "", 400, api.CodeInvalidRequest},
		{"bad claim body", "POST", "/v1/leases/claim", "{", 400, api.CodeInvalidRequest},
		{"claim from another model", "POST", "/v1/leases/claim", `{"worker":"w","model":1,"goarch":"amd64"}`, 409, api.CodeModelMismatch},
		{"lease gone", "POST", "/v1/leases/zzz/renew", "", 410, api.CodeGone},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if env := errorEnvelope(t, resp); env.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Code, tc.code)
		}
	}
}

// TestCampaignBodyLimit: a POST /v1/campaigns body of exactly
// maxCampaignBody bytes is read and judged on its content, and one byte
// more answers 413 invalid_request without being decoded.
func TestCampaignBodyLimit(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	const body = `{"scenarios":["no-such-scenario"]}`
	for _, tc := range []struct {
		size   int
		status int
	}{
		{maxCampaignBody, http.StatusBadRequest}, // read whole: the scenario is unknown
		{maxCampaignBody + 1, http.StatusRequestEntityTooLarge},
	} {
		padded := strings.Repeat(" ", tc.size-len(body)) + body
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(padded))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%d-byte body: status = %d, want %d", tc.size, resp.StatusCode, tc.status)
		}
		if env := errorEnvelope(t, resp); env.Code != api.CodeInvalidRequest {
			t.Fatalf("%d-byte body: code = %q, want %q", tc.size, env.Code, api.CodeInvalidRequest)
		}
	}
}

// TestCampaignGridCap: a small body naming a grid past the caps answers
// 400 invalid_request at once, naming the requested size and the cap; it
// generates, plans and saves nothing.
func TestCampaignGridCap(t *testing.T) {
	srv, ts, st := startServerNoWorkers(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	seeds := make([]uint64, maxCampaignCells/3+1) // × 3 protocols: one cell past the cap
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	overSeeds, err := json.Marshal(campaignRequest{Scenarios: []string{"node-churn"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body, want string
	}{
		// 100,000,000 Scenario headers alone are 10.4 GB.
		{"generate", `{"generate":["dense:100000000"]}`,
			fmt.Sprintf("100000000 scenarios, more than the cap of %d", caem.MaxCampaignScenarios)},
		{"seeds", string(overSeeds),
			fmt.Sprintf("%d cells (1 scenarios × 3 protocols × %d seeds), more than the cap of %d", 3*len(seeds), len(seeds), maxCampaignCells)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			env := errorEnvelope(t, resp)
			runtime.ReadMemStats(&after)
			if env.Code != api.CodeInvalidRequest || !strings.Contains(env.Message, tc.want) {
				t.Fatalf("error %s %q, want %s naming %q", env.Code, env.Message, api.CodeInvalidRequest, tc.want)
			}
			// The refusals allocate about 0.1 and 1.3 MB, mostly the
			// request, the decoded 120 KB seeds list and its canonical
			// encoding; planning 65,537 cells would hold about 30 MB.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("refusing the grid allocated %d bytes", alloc)
			}
			if ids, err := st.CampaignIDs(); err != nil || len(ids) != 0 {
				t.Fatalf("refused request saved campaign specs: %v (%v)", ids, err)
			}
			srv.mu.Lock()
			n := len(srv.campaigns)
			srv.mu.Unlock()
			if n != 0 {
				t.Fatalf("refused request registered %d campaigns", n)
			}
		})
	}
}

// TestRecoverySkipsOversizedSpec: a stored spec past the caps (one saved
// before the caps existed) is skipped at recovery, not expanded.
func TestRecoverySkipsOversizedSpec(t *testing.T) {
	seeds := make([]uint64, maxCampaignCells/3+1)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	id, canonical, err := campaignID(campaignRequest{Scenarios: []string{"node-churn"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	st, err := caem.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.SaveCampaignSpec(id, canonical); err != nil {
		t.Fatal(err)
	}
	srv, err := newServerWith(st, serverConfig{workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(0)
	srv.mu.Lock()
	n := len(srv.campaigns)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("recovery registered %d campaigns from an oversized spec", n)
	}
}

// listPage fetches one page of the campaign listing.
func listPage(t *testing.T, url string) (listResponse, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var page listResponse
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page, resp.Header
}

// TestListPagination: cursor pagination over GET /v1/campaigns with
// Link rel="next" headers, stable across pages in submission order.
func TestListPagination(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"scenarios":["node-churn"],"protocols":["leach"],"seeds":[%d],"config":{"durationSeconds":5}}`, seed)
		ids = append(ids, postCampaign(t, ts.URL, body).ID)
	}

	page1, hdr := listPage(t, ts.URL+"/v1/campaigns?page_size=2")
	if len(page1.Campaigns) != 2 || page1.NextPageToken == "" {
		t.Fatalf("page 1 = %d campaigns, token %q", len(page1.Campaigns), page1.NextPageToken)
	}
	link := hdr.Get("Link")
	if !strings.Contains(link, `rel="next"`) || !strings.Contains(link, "/v1/campaigns?") {
		t.Fatalf("Link header = %q", link)
	}
	page2, hdr2 := listPage(t, ts.URL+"/v1/campaigns?page_size=2&page_token="+page1.NextPageToken)
	if len(page2.Campaigns) != 1 || page2.NextPageToken != "" {
		t.Fatalf("page 2 = %d campaigns, token %q", len(page2.Campaigns), page2.NextPageToken)
	}
	if hdr2.Get("Link") != "" {
		t.Fatalf("last page advertises a next link: %q", hdr2.Get("Link"))
	}
	var got []string
	for _, c := range append(page1.Campaigns, page2.Campaigns...) {
		got = append(got, c.ID)
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("paged ids %v, want submission order %v", got, ids)
	}

	for _, id := range ids {
		waitDone(t, ts.URL, id)
	}
}

// TestListAllocsFlat pins the listing's cost: one GET /v1/campaigns
// allocates the same bytes whether its campaign has 4 cells or 1,050,
// because a listing row is built from the campaign's counters, never
// from its cells.
func TestListAllocsFlat(t *testing.T) {
	bytesPerList := func(body string) float64 {
		t.Helper()
		srv, ts, st := startServerNoWorkers(t, t.TempDir())
		defer st.Close()
		postCampaign(t, ts.URL, body)
		// Closed first, so no coordinator goroutine allocates during the
		// measurement.
		ts.Close()
		srv.Shutdown(0)
		req := httptest.NewRequest("GET", "/v1/campaigns", nil)
		list := func() {
			rec := httptest.NewRecorder()
			srv.handleList(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /v1/campaigns: %d %s", rec.Code, rec.Body)
			}
		}
		list()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			list()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small := bytesPerList(`{"scenarios": ["node-churn"], "protocols": ["leach", "scheme1"], "seeds": [1, 2], "config": {"durationSeconds": 12}}`)
	large := bytesPerList(residencyCampaign(1, 350))
	t.Logf("one listing allocates %.0f B with a 4-cell campaign, %.0f B with a 1,050-cell one", small, large)
	if large > small+512 {
		t.Fatalf("a listing allocates %.0f B more for 1,046 more cells, want it flat", large-small)
	}
}

// queryDoc fetches a results document.
func queryDoc(t *testing.T, url string) (resultsResponse, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var doc resultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, resp.Header
}

// TestResultsQuery drives the query surface end to end: filters,
// metric ranges, top-k, percentile surfaces, and cell pagination —
// all served from the campaign's in-memory results view with zero
// store rescans.
func TestResultsQuery(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	camp := postCampaign(t, ts.URL, testRequest)
	if got := waitDone(t, ts.URL, camp.ID); got.State != "done" {
		t.Fatalf("campaign = %+v", got)
	}
	base := ts.URL + "/v1/campaigns/" + camp.ID + "/results"

	full, _ := queryDoc(t, base)
	if len(full.Cells) != 4 || len(full.Aggregates) != 2 || full.NextPageToken != "" {
		t.Fatalf("unfiltered doc = %d cells, %d aggregates, token %q",
			len(full.Cells), len(full.Aggregates), full.NextPageToken)
	}

	// Protocol filter narrows cells AND aggregates.
	leach, _ := queryDoc(t, base+"?protocol=leach")
	if len(leach.Cells) != 2 || len(leach.Aggregates) != 1 {
		t.Fatalf("protocol filter = %d cells, %d aggregates", len(leach.Cells), len(leach.Aggregates))
	}
	for _, c := range leach.Cells {
		if c.Protocol != "pure-LEACH" { // any ParseProtocol spelling selects the canonical protocol
			t.Fatalf("protocol filter leaked %q", c.Protocol)
		}
	}
	if leach.Completed != 4 {
		t.Fatalf("completed = %d, want the campaign-wide 4", leach.Completed)
	}

	// Top-k returns the cells with the largest metric values.
	delays := make([]float64, 0, 4)
	for _, c := range full.Cells {
		delays = append(delays, c.MeanDelayMs)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(delays)))
	top2, _ := queryDoc(t, base+"?metric=meanDelayMs&top=2")
	if len(top2.Cells) != 2 || top2.Cells[0].MeanDelayMs != delays[0] || top2.Cells[1].MeanDelayMs != delays[1] {
		t.Fatalf("top-2 by meanDelayMs = %+v, want values %v", top2.Cells, delays[:2])
	}

	// Metric range keeps the half-open slice the bounds describe.
	ranged, _ := queryDoc(t, fmt.Sprintf("%s?metric=meanDelayMs&min=%g", base, delays[1]))
	if len(ranged.Cells) != 2 {
		t.Fatalf("min filter kept %d cells, want 2", len(ranged.Cells))
	}

	// Percentile surfaces: exact order statistics per group.
	surf, _ := queryDoc(t, base+"?protocol=leach&metric=meanDelayMs&percentiles=0,100")
	if len(surf.Surfaces) != 1 || surf.Surfaces[0].N != 2 {
		t.Fatalf("surfaces = %+v", surf.Surfaces)
	}
	pts := surf.Surfaces[0].Percentiles
	lo, hi := leach.Cells[0].MeanDelayMs, leach.Cells[1].MeanDelayMs
	if hi < lo {
		lo, hi = hi, lo
	}
	if pts[0].Value != lo || pts[1].Value != hi {
		t.Fatalf("p0/p100 = %v, want %g/%g", pts, lo, hi)
	}

	// Cell pagination with a filter-bound cursor.
	page1, hdr := queryDoc(t, base+"?page_size=3")
	if len(page1.Cells) != 3 || page1.NextPageToken == "" {
		t.Fatalf("page 1 = %d cells, token %q", len(page1.Cells), page1.NextPageToken)
	}
	if len(page1.Aggregates) != 2 {
		t.Fatalf("aggregates must cover the whole filtered set, got %d groups", len(page1.Aggregates))
	}
	if !strings.Contains(hdr.Get("Link"), `rel="next"`) {
		t.Fatalf("Link header = %q", hdr.Get("Link"))
	}
	page2, _ := queryDoc(t, base+"?page_size=3&page_token="+page1.NextPageToken)
	if len(page2.Cells) != 1 || page2.NextPageToken != "" {
		t.Fatalf("page 2 = %d cells, token %q", len(page2.Cells), page2.NextPageToken)
	}
	if got := append(page1.Cells, page2.Cells...); fmt.Sprint(got) != fmt.Sprint(full.Cells) {
		t.Fatal("paged cells diverge from the unpaginated document")
	}

	// A cursor replayed under different filters is rejected, as are
	// unknown metrics — both through the error envelope.
	for _, path := range []string{
		base + "?protocol=leach&page_token=" + page1.NextPageToken,
		base + "?metric=bogus&top=1",
	} {
		resp, err := http.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
		if env := errorEnvelope(t, resp); env.Code != api.CodeInvalidRequest {
			t.Fatalf("GET %s: code %q", path, env.Code)
		}
	}
}

// TestResultReadsDoNotBlockSettlement is the regression gate for the
// results view: a storm of concurrent result reads against an ACTIVE
// campaign must not block cell settlement (a read holds the campaign
// lock only to copy the settled cells; filtering, aggregation and
// encoding run outside it), the campaign must finish on time, and
// every observed document must be monotonic.
func TestResultReadsDoNotBlockSettlement(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	camp := postCampaign(t, ts.URL, chaosRequest) // 8 cells
	url := ts.URL + "/v1/campaigns/" + camp.ID + "/results"

	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					return // server shutting down after test failure
				}
				var doc resultsResponse
				derr := json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					t.Errorf("mid-run read: status %d, decode %v", resp.StatusCode, derr)
					return
				}
				if doc.Completed < last {
					t.Errorf("completed went backwards: %d after %d", doc.Completed, last)
					return
				}
				last = doc.Completed
				reads.Add(1)
			}
		}()
	}

	start := time.Now()
	final := waitDone(t, ts.URL, camp.ID)
	close(done)
	wg.Wait()
	if final.State != "done" || final.Completed != final.Total {
		t.Fatalf("campaign under read load settled as %+v", final)
	}
	if n := reads.Load(); n == 0 {
		t.Fatal("readers never completed a request — the regression scenario did not run")
	}
	t.Logf("campaign finished in %v under %d concurrent result reads", time.Since(start), reads.Load())
}
