package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/cluster"
)

// testRequest is a small real campaign: one library scenario, two
// protocols, two seeds, at a short horizon.
const testRequest = `{
  "scenarios": ["node-churn"],
  "protocols": ["leach", "scheme1"],
  "seeds": [1, 2],
  "config": {"durationSeconds": 12}
}`

func startServer(t *testing.T, dir string) (*server, *httptest.Server, *caem.CampaignStore) {
	t.Helper()
	st, err := caem.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServerWith(st, serverConfig{workers: 2})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return srv, ts, st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// waitDone polls campaign status until it settles.
func waitDone(t *testing.T, base, id string) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st campaignStatus
		getJSON(t, base+"/v1/campaigns/"+id, &st)
		if st.State != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("campaign did not settle in time")
	return campaignStatus{}
}

type resultsDoc struct {
	ID         string            `json:"id"`
	State      string            `json:"state"`
	Total      int               `json:"total"`
	Completed  int               `json:"completed"`
	Cells      []resultCell      `json:"cells"`
	Aggregates []resultAggregate `json:"aggregates"`
}

// TestServeEndToEnd drives the acceptance path: POST a library-scenario
// campaign, watch it complete over HTTP, read results from the store,
// then restart the service on the same store and verify the campaign
// and its results are fully recovered without re-running anything.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, ts, st := startServer(t, dir)

	// Health before any work.
	var health map[string]any
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health["ok"] != true {
		t.Fatalf("healthz = %v", health)
	}

	// Submit.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(testRequest))
	if err != nil {
		t.Fatal(err)
	}
	var created campaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns = %d (%+v)", resp.StatusCode, created)
	}
	if created.Total != 4 {
		t.Fatalf("campaign has %d cells, want 4", created.Total)
	}
	// The 202 is the plan: on a fresh store nothing is restored, and no
	// cell a worker settles after scheduling may be counted in it.
	if created.Completed != 0 || created.State != "running" {
		t.Fatalf("202 reports %d completed cells, state %q; want 0, running", created.Completed, created.State)
	}

	// Idempotent re-POST returns the same campaign.
	resp2, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(testRequest))
	if err != nil {
		t.Fatal(err)
	}
	var again campaignStatus
	json.NewDecoder(resp2.Body).Decode(&again)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || again.ID != created.ID {
		t.Fatalf("re-POST = %d id=%s, want 200 id=%s", resp2.StatusCode, again.ID, created.ID)
	}

	// Progress stream must carry events through to a terminal state.
	preq, err := http.Get(ts.URL + "/v1/campaigns/" + created.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	sawFinal := false
	scanner := bufio.NewScanner(preq.Body)
	for scanner.Scan() {
		var ev progressEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad progress line %q: %v", scanner.Text(), err)
		}
		if ev.State == "done" {
			sawFinal = true
		}
	}
	preq.Body.Close()
	if !sawFinal {
		t.Fatal("progress stream ended without a final done event")
	}

	status := waitDone(t, ts.URL, created.ID)
	if status.State != "done" || status.Completed != 4 || status.Failed != 0 {
		t.Fatalf("campaign settled as %+v", status)
	}

	// Results straight from the store.
	var results resultsDoc
	getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"/results", &results)
	if results.Completed != 4 || len(results.Cells) != 4 {
		t.Fatalf("results = %+v", results)
	}
	if len(results.Aggregates) != 2 { // one group per protocol
		t.Fatalf("aggregates = %d groups, want 2", len(results.Aggregates))
	}
	for _, a := range results.Aggregates {
		if a.Seeds != 2 {
			t.Fatalf("aggregate %s/%s has %d seeds, want 2", a.Scenario, a.Protocol, a.Seeds)
		}
	}

	// Restart: stop the service, reopen the same store, and verify full
	// recovery with zero re-execution.
	ts.Close()
	srv.Shutdown(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, st2 := startServer(t, dir)
	defer func() { ts2.Close(); srv2.Shutdown(0); st2.Close() }()

	if st2.Len() != 4 {
		t.Fatalf("store holds %d cells after restart, want 4", st2.Len())
	}
	recovered := waitDone(t, ts2.URL, created.ID)
	if recovered.State != "done" || recovered.Completed != 4 {
		t.Fatalf("recovered campaign = %+v", recovered)
	}
	restored := 0
	for _, c := range recovered.Cells {
		if c.Status == "restored" {
			restored++
		}
	}
	if restored != 4 {
		t.Fatalf("recovered campaign restored %d cells, want 4 (no re-runs)", restored)
	}

	var results2 resultsDoc
	getJSON(t, ts2.URL+"/v1/campaigns/"+created.ID+"/results", &results2)
	b1, _ := json.Marshal(results)
	b2, _ := json.Marshal(results2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("results diverged across restart:\n pre %s\npost %s", b1, b2)
	}
}

// TestServeInlineSpecAndErrors covers inline specs, validation
// failures, and 404s.
func TestServeInlineSpecAndErrors(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	// Inline spec with an all-nodes burst event.
	inline := `{
	  "specs": [{
	    "name": "inline-burst",
	    "timeline": [{"at": 3, "type": "burst", "scale": 3, "durationSeconds": 4}]
	  }],
	  "protocols": ["scheme2"],
	  "seeds": [7],
	  "config": {"durationSeconds": 10, "nodes": 20}
	}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(inline))
	if err != nil {
		t.Fatal(err)
	}
	var created campaignStatus
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || created.Total != 1 {
		t.Fatalf("inline POST = %d %+v", resp.StatusCode, created)
	}
	status := waitDone(t, ts.URL, created.ID)
	if status.State != "done" {
		t.Fatalf("inline campaign = %+v", status)
	}

	for name, body := range map[string]string{
		"no scenarios":     `{"protocols":["leach"]}`,
		"unknown scenario": `{"scenarios":["no-such-scenario"]}`,
		"unknown protocol": `{"scenarios":["node-churn"],"protocols":["tdma"]}`,
		"unknown field":    `{"scenarios":["node-churn"],"turbo":true}`,
		"bad config":       `{"scenarios":["node-churn"],"config":{"nodes":-5}}`,
		"unknown family":   `{"generate":["no-such-family:2"]}`,
		"bad gen count":    `{"generate":["mixed:0"]}`,
		"bad gen spec":     `{"generate":["mixed"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown campaign = %d, want 404", resp.StatusCode)
	}

	var list struct {
		Campaigns []campaignStatus `json:"campaigns"`
	}
	getJSON(t, ts.URL+"/v1/campaigns", &list)
	if len(list.Campaigns) != 1 {
		t.Fatalf("list has %d campaigns, want 1", len(list.Campaigns))
	}
}

// TestServeGeneratedCampaignRecovers: a campaign submitted with the
// "generate" spelling persists only the spelling, not the expanded
// specs. Because generation is deterministic, a restarted service
// regenerates byte-identical scenarios, rehashes to the same cells, and
// restores every result from the store without re-running anything.
func TestServeGeneratedCampaignRecovers(t *testing.T) {
	dir := t.TempDir()
	srv, ts, st := startServer(t, dir)

	req := `{
	  "generate": ["mixed:2:42"],
	  "protocols": ["scheme1"],
	  "seeds": [3],
	  "config": {"durationSeconds": 10}
	}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var created campaignStatus
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || created.Total != 2 {
		t.Fatalf("generated POST = %d %+v", resp.StatusCode, created)
	}
	for _, c := range created.Cells {
		if !strings.HasPrefix(c.Scenario, "gen/mixed/42/") {
			t.Fatalf("generated cell has scenario %q", c.Scenario)
		}
	}
	status := waitDone(t, ts.URL, created.ID)
	if status.State != "done" || status.Completed != 2 {
		t.Fatalf("generated campaign settled as %+v", status)
	}
	var results resultsDoc
	getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"/results", &results)

	ts.Close()
	srv.Shutdown(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, st2 := startServer(t, dir)
	defer func() { ts2.Close(); srv2.Shutdown(0); st2.Close() }()
	recovered := waitDone(t, ts2.URL, created.ID)
	if recovered.State != "done" || recovered.Completed != 2 {
		t.Fatalf("recovered generated campaign = %+v", recovered)
	}
	for _, c := range recovered.Cells {
		if c.Status != "restored" {
			t.Fatalf("cell %s/%s/%d = %s after restart, want restored (rehash mismatch?)",
				c.Scenario, c.Protocol, c.Seed, c.Status)
		}
	}
	var results2 resultsDoc
	getJSON(t, ts2.URL+"/v1/campaigns/"+created.ID+"/results", &results2)
	b1, _ := json.Marshal(results)
	b2, _ := json.Marshal(results2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("generated results diverged across restart:\n pre %s\npost %s", b1, b2)
	}
}

// TestServeRejectedRequestLeavesNoTrace: an invalid-but-parseable POST
// must not persist a campaign spec — a poisoned spec would wedge every
// future restart's recovery — and a service restart on the same store
// must come up clean.
func TestServeRejectedRequestLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	srv, ts, st := startServer(t, dir)

	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"scenarios":["no-such-scenario"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST = %d, want 400", resp.StatusCode)
	}
	ids, err := st.CampaignIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("rejected request persisted campaign specs: %v", ids)
	}

	ts.Close()
	srv.Shutdown(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, ts2, st2 := startServer(t, dir) // must not wedge on recovery
	defer func() { ts2.Close(); srv2.Shutdown(0); st2.Close() }()
	var health map[string]any
	if code := getJSON(t, ts2.URL+"/v1/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("restart after rejected POST unhealthy: %d %v", code, health)
	}
}

// TestServeConcurrentEqualPosts: racing identical submissions must
// resolve to ONE campaign — exactly one 202, the rest 200 with the same
// id — and the grid must not run twice.
func TestServeConcurrentEqualPosts(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	const n = 8
	type outcome struct {
		code int
		id   string
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(testRequest))
			if err != nil {
				results <- outcome{}
				return
			}
			var st campaignStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			results <- outcome{resp.StatusCode, st.ID}
		}()
	}
	accepted, ids := 0, map[string]bool{}
	for i := 0; i < n; i++ {
		o := <-results
		if o.code == http.StatusAccepted {
			accepted++
		} else if o.code != http.StatusOK {
			t.Fatalf("concurrent POST = %d", o.code)
		}
		ids[o.id] = true
	}
	if accepted != 1 || len(ids) != 1 {
		t.Fatalf("concurrent equal POSTs: %d accepted, ids %v — want exactly 1 campaign", accepted, ids)
	}
	var id string
	for k := range ids {
		id = k
	}
	if done := waitDone(t, ts.URL, id); done.Total != 4 || done.Completed != 4 {
		t.Fatalf("campaign = %+v", done)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d cells, want 4 (grid must not run twice)", st.Len())
	}
}

// TestServeSpecWriteFailureRetries: a POST whose spec write fails
// answers 500 and leaves no campaign behind, so the retried POST
// registers, persists and runs the campaign as if it were the first.
func TestServeSpecWriteFailureRetries(t *testing.T) {
	dir := t.TempDir()
	srv, ts, st := startServer(t, dir)
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	post := func() (int, campaignStatus) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(testRequest))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var status campaignStatus
		json.NewDecoder(resp.Body).Decode(&status)
		return resp.StatusCode, status
	}

	// A regular file where the campaigns directory should be fails every
	// spec write.
	campaigns := filepath.Join(dir, "campaigns")
	if err := os.Remove(campaigns); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(campaigns, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := post(); code != http.StatusInternalServerError {
		t.Fatalf("POST with an unwritable spec = %d, want 500", code)
	}

	if err := os.Remove(campaigns); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(campaigns, 0o755); err != nil {
		t.Fatal(err)
	}
	code, created := post()
	if code != http.StatusAccepted {
		t.Fatalf("retried POST = %d, want 202 (the failed POST left a campaign registered)", code)
	}
	if ids, err := st.CampaignIDs(); err != nil || len(ids) != 1 || ids[0] != created.ID {
		t.Fatalf("stored specs = %v, %v; want [%s]", ids, err, created.ID)
	}
	if done := waitDone(t, ts.URL, created.ID); done.State != "done" || done.Completed != 4 {
		t.Fatalf("campaign = %+v, want done with 4 cells", done)
	}
}

// TestServeResultsMatchLibraryRun: the service must produce the same
// numbers as the in-process campaign API for the same grid — the HTTP
// layer adds scheduling, not physics.
func TestServeResultsMatchLibraryRun(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(testRequest))
	if err != nil {
		t.Fatal(err)
	}
	var created campaignStatus
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	waitDone(t, ts.URL, created.ID)

	var results resultsDoc
	getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"/results", &results)

	sc, err := caem.FindScenario("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := caem.ScenarioConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DurationSeconds = 12
	cfg.Workers = 1
	cells, err := caem.RunCampaign(cfg, []caem.Scenario{sc},
		[]caem.Protocol{caem.PureLEACH, caem.Scheme1}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64, len(cells))
	for _, c := range cells {
		want[fmt.Sprintf("%s/%d", c.Protocol, c.Seed)] = c.Result.TotalConsumedJ
	}
	for _, c := range results.Cells {
		key := fmt.Sprintf("%s/%d", c.Protocol, c.Seed)
		if c.TotalConsumedJ != want[key] {
			t.Fatalf("cell %s consumed %v over HTTP, %v in-process", key, c.TotalConsumedJ, want[key])
		}
	}
}

// TestJoinWorkerExitsOnModelMismatch: a -join worker process whose
// claims a coordinator refuses as another model exits with status 1
// and logs the refusal once, however many executor loops it runs.
func TestJoinWorkerExitsOnModelMismatch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/leases/claim", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusConflict, api.CodeModelMismatch, cluster.ErrModelMismatch.Error(),
			map[string]string{"want": "model 99 on amd64", "got": "model 2 on amd64"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var logs bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- workerMain(workerConfig{join: ts.URL, workers: 3, drain: 5 * time.Second,
			log: slog.New(slog.NewTextHandler(&logs, nil))})
	}()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("workerMain exited %d, want 1", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker process did not exit after its claims were refused")
	}
	if n := strings.Count(logs.String(), "coordinator refused this worker"); n != 1 {
		t.Fatalf("refusal logged %d times, want once:\n%s", n, logs.String())
	}
	if !strings.Contains(logs.String(), "model 99 on amd64") {
		t.Errorf("refusal log does not name the coordinator's model:\n%s", logs.String())
	}
}
