package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/obs"
)

// scrapeMetrics fetches base/metrics, checks the content type, and
// parses the body with the strict exposition parser — every scrape in
// the test suite doubles as a format-validity check.
func scrapeMetrics(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, obs.ContentType)
	}
	exp, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition is not valid Prometheus text format: %v", err)
	}
	return exp
}

// TestMetricsCoordinatorMode runs a campaign to completion on a
// coordinator with local workers, then asserts the /metrics exposition
// is valid, complete, and consistent with /cluster/status and the
// store contents.
func TestMetricsCoordinatorMode(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	camp := postCampaign(t, ts.URL, testRequest)
	final := waitDone(t, ts.URL, camp.ID)
	if final.State != "done" {
		t.Fatalf("campaign did not finish: %+v", final)
	}

	exp := scrapeMetrics(t, ts.URL+"/v1")
	if v, ok := exp.Value("caem_cells_settled_total"); !ok || int(v) != final.Total {
		t.Fatalf("caem_cells_settled_total = %v (ok=%v), want %d", v, ok, final.Total)
	}
	if v, ok := exp.Value("caem_store_appends_total"); !ok || int(v) < final.Total {
		t.Fatalf("caem_store_appends_total = %v (ok=%v), want >= %d", v, ok, final.Total)
	}
	if n, ok := exp.Sum("caem_worker_cells_completed_total"); !ok || int(n) < final.Total {
		t.Fatalf("worker cell counters sum to %v (ok=%v), want >= %d", n, ok, final.Total)
	}
	if v, ok := exp.Value("caem_build_info", "version", "dev", "goversion", goVersion()); !ok || v != 1 {
		t.Fatalf("caem_build_info missing or not 1: %v (ok=%v)", v, ok)
	}
	if _, ok := exp.Sum("caem_http_requests_total"); !ok {
		t.Fatal("HTTP route instrumentation missing from exposition")
	}
	for _, name := range []string{
		"caem_lease_claims_total", "caem_lease_completed_total",
		"caem_lease_batch_cells", "caem_store_fsync_seconds",
		"caem_coordinator_queue_depth", "caem_http_request_seconds",
	} {
		if exp.Families[name] == nil {
			t.Errorf("expected metric family %s missing from exposition", name)
		}
	}

	// Status and metrics are two reads of the same registry.
	var cst clusterStatus
	if code := getJSON(t, ts.URL+"/v1/cluster/status", &cst); code != http.StatusOK {
		t.Fatalf("cluster status: HTTP %d", code)
	}
	if v, _ := exp.Value("caem_cells_settled_total"); int(v) != cst.Settled {
		t.Fatalf("metrics say %d settled, status says %d", int(v), cst.Settled)
	}
	if v, _ := exp.Value("caem_lease_expired_total"); int(v) != cst.ExpiredLeases {
		t.Fatalf("metrics say %d expired, status says %d", int(v), cst.ExpiredLeases)
	}

	// The production registry must pass the naming lint.
	if errs := srv.reg.Lint("caem_"); len(errs) != 0 {
		t.Fatalf("registry fails the metric-naming lint: %v", errs)
	}
}

// TestStoreFsyncPerLease pins group commit at the HTTP surface: over
// one campaign the store fsyncs exactly once per commit round (one
// durable write of every lease accepted since the previous write),
// never more often than leases complete and never once per cell, and
// that fsync is the settlement's only durable write. The server runs
// with a journal attached, and a fault-free campaign appends nothing
// to it.
func TestStoreFsyncPerLease(t *testing.T) {
	srv, ts, st := startJournaledServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	// Twelve cells on two workers: guided self-scheduling hands out
	// multi-cell leases first, so per-cell fsyncs would outnumber leases.
	const request = `{
  "scenarios": ["node-churn"],
  "protocols": ["leach", "scheme1"],
  "seeds": [1, 2, 3, 4, 5, 6],
  "config": {"durationSeconds": 12}
}`
	// The counters move before the write's last cell marks the campaign
	// done: a lease counts as completed when it is accepted, a commit
	// round is counted before its write, and the fsync is observed before
	// the sink reports progress.
	counts := func(exp *obs.Exposition) (fsyncs, rounds, leases, appends float64) {
		fsyncs, _ = exp.Value("caem_store_fsync_seconds_count")
		rounds, _ = exp.Value("caem_settle_commit_cells_count")
		leases, _ = exp.Value("caem_lease_completed_total")
		var ok bool
		if appends, ok = exp.Value("caem_journal_appends_total"); !ok {
			t.Fatal("caem_journal_appends_total missing: no journal attached")
		}
		return
	}
	f0, r0, l0, a0 := counts(scrapeMetrics(t, ts.URL+"/v1"))
	camp := postCampaign(t, ts.URL, request)
	final := waitDone(t, ts.URL, camp.ID)
	if final.State != "done" || final.Completed != 12 {
		t.Fatalf("campaign did not finish cleanly: %+v", final)
	}
	f1, r1, l1, a1 := counts(scrapeMetrics(t, ts.URL+"/v1"))
	fsyncs, rounds, leases := f1-f0, r1-r0, l1-l0
	if leases == 0 || leases >= float64(final.Completed) {
		t.Fatalf("%v leases settled %d cells; want fewer leases than cells", leases, final.Completed)
	}
	if rounds == 0 || rounds > leases {
		t.Fatalf("%v commit rounds for %v completed leases, want between 1 and one per lease", rounds, leases)
	}
	if fsyncs != rounds {
		t.Fatalf("store fsyncs = %v over %v commit rounds (%v leases, %d cells), want one per round",
			fsyncs, rounds, leases, final.Completed)
	}
	if a1 != a0 {
		t.Fatalf("the fault-free campaign appended %v journal records, want none", a1-a0)
	}
}

// clusterStatus is the subset of cluster.Status this test reads.
type clusterStatus struct {
	Settled       int `json:"settled"`
	ExpiredLeases int `json:"expiredLeases"`
}

func goVersion() string {
	out := httptest.NewRecorder()
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "probe")
	reg.Handler().ServeHTTP(out, httptest.NewRequest("GET", "/metrics", nil))
	exp, err := obs.ParseText(out.Body)
	if err != nil {
		panic(err)
	}
	for _, s := range exp.Families["caem_build_info"].Samples {
		return s.Labels["goversion"]
	}
	return ""
}

// TestMetricsWorkerJoinMode spawns a real `-join` worker subprocess
// with its observability listener enabled and scrapes the worker's own
// /metrics endpoint while it executes a campaign.
func TestMetricsWorkerJoinMode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess worker test skipped in -short mode")
	}
	srv, ts, st := startServerNoWorkers(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	obsFile := filepath.Join(t.TempDir(), "obs-addr")
	worker := spawnWorkerObs(t, ts.URL, 2, obsFile)
	defer func() {
		worker.Process.Signal(os.Interrupt)
		worker.Wait()
	}()

	// The worker publishes its bound observability address once the
	// listener is up.
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for {
		if blob, err := os.ReadFile(obsFile); err == nil && len(blob) > 0 {
			addr = string(blob)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never published its observability address")
		}
		time.Sleep(20 * time.Millisecond)
	}
	base := "http://" + addr

	camp := postCampaign(t, ts.URL, testRequest)
	final := waitDone(t, ts.URL, camp.ID)
	if final.State != "done" {
		t.Fatalf("campaign did not finish on the joined worker: %+v", final)
	}

	exp := scrapeMetrics(t, base)
	if n, ok := exp.Sum("caem_worker_cells_completed_total"); !ok || int(n) < final.Total {
		t.Fatalf("worker-side cells completed = %v (ok=%v), want >= %d", n, ok, final.Total)
	}
	if n, ok := exp.Sum("caem_worker_simulated_seconds_total"); !ok || n <= 0 {
		t.Fatalf("worker simulated seconds = %v (ok=%v), want > 0", n, ok)
	}
	if exp.Families["caem_worker_heartbeat_rtt_seconds"] == nil {
		t.Error("heartbeat RTT histogram missing from worker exposition")
	}
	if exp.Families["caem_build_info"] == nil {
		t.Error("build info missing from worker exposition")
	}

	// The worker serves pprof too.
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker /debug/pprof/cmdline: %s", resp.Status)
	}
}

// TestPprofMounted asserts the profiling surface is reachable on the
// coordinator mux without going through http.DefaultServeMux.
func TestPprofMounted(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
	}
}

// TestHealthzVersion asserts /healthz carries the build version.
func TestHealthzVersion(t *testing.T) {
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	var health struct {
		OK      bool   `json:"ok"`
		Version string `json:"version"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if !health.OK || health.Version != "dev" {
		t.Fatalf("healthz = %+v, want ok with version dev", health)
	}
}

// startServerNoWorkers starts a coordinator with no local workers, so
// joined subprocess workers do all execution.
func startServerNoWorkers(t *testing.T, dir string) (*server, *httptest.Server, *caem.CampaignStore) {
	t.Helper()
	st, err := caem.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServerWith(st, serverConfig{workers: 0})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv), st
}

// spawnWorkerObs re-executes the test binary as a joined worker with
// its observability listener enabled, publishing the bound address to
// obsFile.
func spawnWorkerObs(t *testing.T, base string, loops int, obsFile string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CAEM_TEST_WORKER_JOIN="+base,
		fmt.Sprintf("CAEM_TEST_WORKER_N=%d", loops),
		"CAEM_TEST_WORKER_OBSFILE="+obsFile,
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}
