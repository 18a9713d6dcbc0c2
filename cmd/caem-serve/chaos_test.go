package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/cluster"
)

// TestMain doubles as the worker-process entry point for the chaos
// test: when CAEM_TEST_WORKER_JOIN is set, the test binary re-executes
// itself as a real `caem-serve -join` worker instead of running tests,
// so the cluster test gets genuine separate processes to kill. When
// CAEM_TEST_WORKER_OBSFILE also names a path, the worker serves its
// observability endpoints on a loopback port and publishes the bound
// address there (atomically, via rename) for the parent to scrape.
func TestMain(m *testing.M) {
	if join := os.Getenv("CAEM_TEST_WORKER_JOIN"); join != "" {
		n, _ := strconv.Atoi(os.Getenv("CAEM_TEST_WORKER_N"))
		if n < 1 {
			n = 1
		}
		cfg := workerConfig{join: join, workers: n, drain: 5 * time.Second}
		if f := os.Getenv("CAEM_TEST_WORKER_OBSFILE"); f != "" {
			cfg.obsAddr = "127.0.0.1:0"
			cfg.obsReady = func(addr string) {
				os.WriteFile(f+".tmp", []byte(addr), 0o644)
				os.Rename(f+".tmp", f)
			}
		}
		os.Exit(workerMain(cfg))
	}
	if role := os.Getenv("CAEM_TEST_SERVE_ROLE"); role != "" {
		// Failover-test coordinator processes (see failover_test.go).
		os.Exit(serveFromEnv(role))
	}
	os.Exit(m.Run())
}

// spawnWorker re-executes the test binary as a worker process joined to
// the coordinator at base.
func spawnWorker(t *testing.T, base string, loops int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CAEM_TEST_WORKER_JOIN="+base,
		fmt.Sprintf("CAEM_TEST_WORKER_N=%d", loops),
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// chaosRequest is a grid big enough that a worker dies mid-campaign:
// 2 protocols × 4 seeds = 8 cells of a few hundred simulated seconds.
const chaosRequest = `{
  "scenarios": ["node-churn"],
  "protocols": ["leach", "scheme1"],
  "seeds": [1, 2, 3, 4],
  "config": {"durationSeconds": 120}
}`

func postCampaign(t *testing.T, base, body string) campaignStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/campaigns: %s: %s", resp.Status, blob)
	}
	var st campaignStatus
	if err := jsonDecode(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func jsonDecode(r io.Reader, out any) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, out)
}

// getBytes fetches a URL's body verbatim — the byte-identical
// comparison must not round-trip through any decoder.
func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, blob)
	}
	return blob
}

// TestClusterChaos is the differential fault-tolerance gate: a
// campaign distributed to real worker processes — one of which is
// SIGKILLed mid-lease — must produce a byte-identical results document
// to the same campaign run single-process with no faults.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test skipped in -short mode")
	}

	// Coordinator with no local workers: every cell must flow through
	// the HTTP lease protocol. Short TTL so the kill recovers quickly.
	st, err := caem.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := newServerWith(st, serverConfig{
		workers: 0,
		lease: cluster.Options{
			LeaseTTL:   500 * time.Millisecond,
			SweepEvery: 100 * time.Millisecond,
			MaxBatch:   2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	camp := postCampaign(t, ts.URL, chaosRequest)
	if camp.State != "running" || camp.Completed != 0 {
		t.Fatalf("campaign did not start fresh: %+v", camp)
	}

	// Phase 1: the victim worker process joins alone, so it is
	// guaranteed to be holding a lease when the SIGKILL lands.
	victim := spawnWorker(t, ts.URL, 2)
	victimTag := fmt.Sprintf("-%d-", victim.Process.Pid)
	holdBy := time.Now().Add(60 * time.Second)
	for {
		var cst cluster.Status
		if err := jsonDecode(bytes.NewReader(getBytes(t, ts.URL+"/v1/cluster/status")), &cst); err != nil {
			t.Fatal(err)
		}
		held := false
		for _, l := range cst.Leases {
			held = held || strings.Contains(l.Worker, victimTag)
		}
		if held {
			break
		}
		if time.Now().After(holdBy) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatalf("victim worker never claimed a lease: %+v", cst)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no drain, no release
		t.Fatal(err)
	}
	victim.Wait()

	// Phase 2: a survivor worker process finishes the campaign,
	// including the cells the victim died holding.
	survivor := spawnWorker(t, ts.URL, 2)
	defer func() {
		survivor.Process.Signal(os.Interrupt) // graceful: leases release
		survivor.Wait()
	}()
	final := waitDone(t, ts.URL, camp.ID)
	if final.State != "done" || final.Completed != final.Total || final.Failed != 0 {
		t.Fatalf("campaign did not recover from the worker kill: %+v", final)
	}
	var cst cluster.Status
	if err := jsonDecode(bytes.NewReader(getBytes(t, ts.URL+"/v1/cluster/status")), &cst); err != nil {
		t.Fatal(err)
	}
	if cst.ExpiredLeases == 0 {
		t.Fatalf("kill never expired a lease — the fault was not injected mid-lease: %+v", cst)
	}
	if len(cst.Poisoned) != 0 {
		t.Fatalf("worker death must not poison cells: %+v", cst.Poisoned)
	}

	// The same facts must be visible in the /metrics exposition —
	// /cluster/status is a thin read of the registry, so the two views
	// can never disagree.
	exp := scrapeMetrics(t, ts.URL+"/v1")
	if v, ok := exp.Value("caem_lease_expired_total"); !ok || v <= 0 {
		t.Fatalf("caem_lease_expired_total = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := exp.Value("caem_cells_poisoned_total"); ok && v != 0 {
		t.Fatalf("caem_cells_poisoned_total = %v, want 0", v)
	}
	if v, ok := exp.Value("caem_cells_settled_total"); !ok || int(v) != cst.Settled {
		t.Fatalf("caem_cells_settled_total = %v (ok=%v), status says %d", v, ok, cst.Settled)
	}
	chaotic := getBytes(t, ts.URL+"/v1/campaigns/"+camp.ID+"/results")

	// Reference: the same campaign, single process, no faults.
	refStore, err := caem.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	refSrv, err := newServerWith(refStore, serverConfig{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Shutdown(0)
	refTS := httptest.NewServer(refSrv)
	defer refTS.Close()
	refCamp := postCampaign(t, refTS.URL, chaosRequest)
	if got := waitDone(t, refTS.URL, refCamp.ID); got.State != "done" {
		t.Fatalf("reference run failed: %+v", got)
	}
	reference := getBytes(t, refTS.URL+"/v1/campaigns/"+refCamp.ID+"/results")

	if !bytes.Equal(chaotic, reference) {
		t.Fatalf("chaotic cluster run is not byte-identical to the single-process run:\n--- cluster (%d bytes)\n%s\n--- single-process (%d bytes)\n%s",
			len(chaotic), chaotic, len(reference), reference)
	}
}

// TestTransientStoreFaultHealsInvisibly: injected store-write failures
// on the persistence path re-queue cells through the retry/backoff path
// and the campaign still completes with every cell done.
func TestTransientStoreFaultHealsInvisibly(t *testing.T) {
	st, err := caem.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var mu sync.Mutex
	faults := map[string]int{}
	chaos := &cluster.Chaos{
		FailStorePut: func(c cluster.Cell) error {
			mu.Lock()
			defer mu.Unlock()
			if faults[c.Key()] < 2 { // fail each cell's first two persists
				faults[c.Key()]++
				return fmt.Errorf("injected store outage (%s)", c.Key())
			}
			return nil
		},
	}
	srv, err := newServerWith(st, serverConfig{
		workers: 2,
		lease:   cluster.Options{BackoffBase: 5 * time.Millisecond, MaxBatch: 2},
		chaos:   chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	camp := postCampaign(t, ts.URL, testRequest)
	final := waitDone(t, ts.URL, camp.ID)
	if final.State != "done" || final.Failed != 0 || final.Completed != final.Total {
		t.Fatalf("store faults leaked into the campaign outcome: %+v", final)
	}
	mu.Lock()
	injected := len(faults)
	mu.Unlock()
	if injected != final.Total {
		t.Fatalf("faults hit %d cells, want all %d", injected, final.Total)
	}
	var doc resultsDoc
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+camp.ID+"/results", &doc); code != http.StatusOK {
		t.Fatalf("results: HTTP %d", code)
	}
	if len(doc.Cells) != final.Total {
		t.Fatalf("store holds %d cells, want %d", len(doc.Cells), final.Total)
	}
}

// TestShutdownMidCampaignResumes: a graceful shutdown mid-campaign
// drains in-flight cells within the deadline; a fresh server on the
// same store resumes the campaign and finishes it.
func TestShutdownMidCampaignResumes(t *testing.T) {
	dir := t.TempDir()
	st, err := caem.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServerWith(st, serverConfig{workers: 1, lease: cluster.Options{MaxBatch: 1}})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	camp := postCampaign(t, ts.URL, chaosRequest)
	// Let at least one cell land in the store, then pull the plug.
	settleBy := time.Now().Add(60 * time.Second)
	for st.Len() == 0 {
		if time.Now().After(settleBy) {
			t.Fatal("no cell ever persisted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Close()
	if err := srv.Shutdown(30 * time.Second); err != nil {
		t.Fatalf("graceful shutdown missed its drain deadline: %v", err)
	}
	persisted := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if persisted == 8 {
		t.Skip("campaign finished before shutdown; resume path not exercised")
	}

	srv2, ts2, st2 := startServer(t, dir)
	defer func() { ts2.Close(); srv2.Shutdown(0); st2.Close() }()
	final := waitDone(t, ts2.URL, camp.ID)
	if final.State != "done" || final.Completed != final.Total {
		t.Fatalf("campaign did not resume after graceful shutdown: %+v", final)
	}
	restored := 0
	for _, cell := range final.Cells {
		if cell.Status == "restored" {
			restored++
		}
	}
	if restored != persisted {
		t.Fatalf("resume restored %d cells, want the %d persisted before shutdown", restored, persisted)
	}
}
