package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/cluster"
	"repro/internal/cluster/journal"
	"repro/internal/obs"
)

// serveFromEnv is the coordinator-process entry point for the failover
// test: TestMain re-executes the test binary as a real caem-serve
// primary or standby so the test can SIGKILL a genuine leader process.
func serveFromEnv(role string) int {
	logger, _ := obs.NewLogger(os.Stderr, "text", false)
	if path := os.Getenv("CAEM_TEST_SERVE_LOG"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			return 1
		}
		defer f.Close()
		logger, _ = obs.NewLogger(f, "json", false)
	}
	lockTTL, _ := time.ParseDuration(os.Getenv("CAEM_TEST_SERVE_LOCKTTL"))
	leaseTTL, _ := time.ParseDuration(os.Getenv("CAEM_TEST_SERVE_LEASETTL"))
	maxBatch, _ := strconv.Atoi(os.Getenv("CAEM_TEST_SERVE_MAXBATCH"))
	addrFile := os.Getenv("CAEM_TEST_SERVE_ADDRFILE")
	return serveMode(serveOptions{
		addr:     "127.0.0.1:0",
		storeDir: os.Getenv("CAEM_TEST_SERVE_STORE"),
		workers:  0, // every cell must flow through the HTTP lease protocol
		drain:    5 * time.Second,
		leaseTTL: leaseTTL,
		maxBatch: maxBatch,
		lockTTL:  lockTTL,
		standby:  role == "standby",
		primary:  os.Getenv("CAEM_TEST_SERVE_HINT"),
		log:      logger,
		addrReady: func(addr string) {
			os.WriteFile(addrFile+".tmp", []byte(addr), 0o644)
			os.Rename(addrFile+".tmp", addrFile)
		},
	})
}

// spawnServe re-executes the test binary as a coordinator process and
// waits for it to publish its bound address.
func spawnServe(t *testing.T, role, storeDir, hint string, lockTTL, leaseTTL time.Duration) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CAEM_TEST_SERVE_ROLE="+role,
		"CAEM_TEST_SERVE_STORE="+storeDir,
		"CAEM_TEST_SERVE_ADDRFILE="+addrFile,
		"CAEM_TEST_SERVE_LOCKTTL="+lockTTL.String(),
		"CAEM_TEST_SERVE_LEASETTL="+leaseTTL.String(),
		"CAEM_TEST_SERVE_MAXBATCH=2", // small batches spread cells across workers
		"CAEM_TEST_SERVE_HINT="+hint,
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if blob, err := os.ReadFile(addrFile); err == nil {
			return cmd, "http://" + string(blob)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("%s never published its address", role)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// healthDoc fetches /healthz; any transport error reads as "not up yet"
// (nil map), so callers can poll across a takeover window.
func healthDoc(base string) map[string]any {
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var doc map[string]any
	if jsonDecode(resp.Body, &doc) != nil {
		return nil
	}
	return doc
}

// waitRole polls /healthz until the process reports the role, returning
// the health document that matched.
func waitRole(t *testing.T, base, role string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if doc := healthDoc(base); doc != nil && doc["role"] == role {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reported role %q", base, role)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLeadingLogTimesStartup: the "caem-serve leading" line a
// coordinator logs once it leads (on a first start, and the same line
// on a takeover) carries the bound addr, how long the store took to
// open (open_ms), and how long journal replay and campaign recovery
// took (recover_ms).
func TestLeadingLogTimesStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	logFile := filepath.Join(t.TempDir(), "serve.log")
	t.Setenv("CAEM_TEST_SERVE_LOG", logFile)
	cmd, url := spawnServe(t, "primary", t.TempDir(), "", time.Second, time.Second)
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()
	waitRole(t, url, "leader", 30*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		blob, _ := os.ReadFile(logFile)
		for _, line := range bytes.Split(blob, []byte{'\n'}) {
			var rec map[string]any
			if json.Unmarshal(line, &rec) != nil || rec["msg"] != "caem-serve leading" {
				continue
			}
			open, ok1 := rec["open_ms"].(float64)
			recov, ok2 := rec["recover_ms"].(float64)
			if !ok1 || !ok2 || open < 0 || recov < 0 || "http://"+fmt.Sprint(rec["addr"]) != url {
				t.Fatalf("leading log line %s: want addr %s and non-negative open_ms and recover_ms", line, url)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no \"caem-serve leading\" line in the log:\n%s", blob)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// failoverRequest is a grid long enough that the coordinator dies with
// work still in flight: 2 protocols × 4 seeds = 8 cells of a few
// hundred simulated seconds.
const failoverRequest = `{
  "scenarios": ["node-churn"],
  "protocols": ["leach", "scheme1"],
  "seeds": [1, 2, 3, 4],
  "config": {"durationSeconds": 120}
}`

// TestCoordinatorFailover is the coordinator fault-tolerance gate: the
// leader is SIGKILLed mid-campaign with two live worker processes; the
// standby must take over within 2× the lock TTL (replaying the journal
// the dead leader wrote), fence the dead epoch's writes, and finish the
// campaign with a results document byte-identical to a fault-free run.
func TestCoordinatorFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess failover test skipped in -short mode")
	}
	const lockTTL, leaseTTL = time.Second, time.Second
	storeDir := t.TempDir()

	primary, purl := spawnServe(t, "primary", storeDir, "", lockTTL, leaseTTL)
	primaryDead := false
	defer func() {
		if !primaryDead {
			primary.Process.Kill()
			primary.Wait()
		}
	}()
	if doc := waitRole(t, purl, "leader", 30*time.Second); doc["ready"] != true {
		t.Fatalf("primary /healthz = %v, want ready=true", doc)
	}

	standby, surl := spawnServe(t, "standby", storeDir, purl, lockTTL, leaseTTL)
	defer func() {
		standby.Process.Signal(os.Interrupt)
		standby.Wait()
	}()
	// Satellite contract: a standby is alive but not ready until it
	// holds the lock.
	if doc := waitRole(t, surl, "standby", 30*time.Second); doc["ready"] != false || doc["ok"] != true {
		t.Fatalf("standby /healthz = %v, want ok=true ready=false", doc)
	}

	camp := postCampaign(t, purl, failoverRequest)
	if camp.State != "running" || camp.Total != 8 {
		t.Fatalf("campaign did not start fresh: %+v", camp)
	}

	// Workers join with both coordinator URLs so they can re-target.
	for i := 0; i < 2; i++ {
		wk := spawnWorker(t, purl+","+surl, 2)
		defer func() {
			wk.Process.Signal(os.Interrupt)
			wk.Wait()
		}()
	}

	// Wait until the primary has granted a lease, and record one of its
	// epoch-1 lease IDs: replaying it against the successor is the
	// deterministic fenced write (workers may or may not race one in
	// naturally during the takeover window).
	var victimLease string
	holdBy := time.Now().Add(60 * time.Second)
	for victimLease == "" {
		var cst cluster.Status
		if err := jsonDecode(bytes.NewReader(getBytes(t, purl+"/v1/cluster/status")), &cst); err != nil {
			t.Fatal(err)
		}
		if len(cst.Leases) > 0 {
			victimLease = cst.Leases[0].ID
		}
		if time.Now().After(holdBy) {
			t.Fatal("primary never granted a lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.HasPrefix(victimLease, "lease-1-") {
		t.Fatalf("primary lease ID %q does not carry epoch 1", victimLease)
	}

	// SIGKILL the leader mid-campaign: no drain, no release, no lock
	// handoff — the standby must notice the lock expire on its own.
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	primaryDead = true
	killedAt := time.Now()

	doc := waitRole(t, surl, "leader", 30*time.Second)
	took := time.Since(killedAt)
	if doc["ready"] != true {
		t.Fatalf("new leader /healthz = %v, want ready=true", doc)
	}
	if took > 2*lockTTL {
		t.Fatalf("takeover took %v, want <= %v (2x lock TTL)", took, 2*lockTTL)
	}

	// The dead epoch is fenced: renewing the victim's epoch-1 lease
	// against the new leader answers 410 with the "fenced" code, not
	// plain "gone" — the worker-visible signal to re-resolve the leader.
	resp, err := http.Post(surl+"/v1/leases/"+victimLease+"/renew", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	derr := jsonDecode(resp.Body, &envelope)
	resp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusGone || envelope.Error.Code != "fenced" {
		t.Fatalf("ghost renew = %s code %q, want 410 code \"fenced\"", resp.Status, envelope.Error.Code)
	}

	final := waitDone(t, surl, camp.ID)
	if final.State != "done" || final.Completed != final.Total || final.Failed != 0 {
		t.Fatalf("campaign did not survive the coordinator kill: %+v", final)
	}
	var cst cluster.Status
	if err := jsonDecode(bytes.NewReader(getBytes(t, surl+"/v1/cluster/status")), &cst); err != nil {
		t.Fatal(err)
	}
	if cst.Epoch < 2 {
		t.Fatalf("successor epoch = %d, want >= 2", cst.Epoch)
	}
	if len(cst.Poisoned) != 0 {
		t.Fatalf("coordinator death must not poison cells: %+v", cst.Poisoned)
	}

	exp := scrapeMetrics(t, surl+"/v1")
	if v, ok := exp.Value("caem_cluster_fenced_total"); !ok || v < 1 {
		t.Fatalf("caem_cluster_fenced_total = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := exp.Value("caem_cluster_epoch"); !ok || v < 2 {
		t.Fatalf("caem_cluster_epoch = %v (ok=%v), want >= 2", v, ok)
	}
	if v, ok := exp.Value("caem_cluster_takeovers_total"); !ok || v < 1 {
		t.Fatalf("caem_cluster_takeovers_total = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := exp.Value("caem_cells_poisoned_total"); ok && v != 0 {
		t.Fatalf("caem_cells_poisoned_total = %v, want 0", v)
	}
	failedOver := getBytes(t, surl+"/v1/campaigns/"+camp.ID+"/results")

	// Reference: the same campaign, single process, no faults. The
	// failover must be invisible in the results document, byte for byte.
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
	refCamp := postCampaign(t, refTS.URL, failoverRequest)
	if got := waitDone(t, refTS.URL, refCamp.ID); got.State != "done" {
		t.Fatalf("reference run failed: %+v", got)
	}
	reference := getBytes(t, refTS.URL+"/v1/campaigns/"+refCamp.ID+"/results")

	if !bytes.Equal(failedOver, reference) {
		t.Fatalf("failed-over run is not byte-identical to the fault-free run:\n--- failover (%d bytes)\n%s\n--- fault-free (%d bytes)\n%s",
			len(failedOver), failedOver, len(reference), reference)
	}
}

// heldWriteRequest is a grid of quick cells, one per lease (the test
// runs with MaxBatch 1), so a held write soon has several acknowledged
// completions queued behind it.
const heldWriteRequest = `{
  "scenarios": ["node-churn"],
  "protocols": ["leach", "scheme1"],
  "seeds": [1, 2, 3, 4, 5, 6],
  "config": {"durationSeconds": 20}
}`

// TestLeaderKilledHoldingAcceptedSettlements: Complete acknowledges a
// settlement before it is durable, so a leader may die holding
// settlements it accepted but never wrote. A chaos hook lets the
// leader's first two cells reach the store and holds its write at the
// third until at least three more completions are acknowledged; then
// the leader dies: it is fenced and torn down, so only a cell the held
// write had already passed may still land, and everything queued behind
// it is dropped. A successor takes the expired lock at the next epoch,
// re-plans the stored spec, recomputes exactly the cells the store lacks
// — the acknowledged ones included — and answers a results document
// byte-identical to a fault-free run's.
func TestLeaderKilledHoldingAcceptedSettlements(t *testing.T) {
	dir := t.TempDir()
	clusterDir := filepath.Join(dir, "cluster")
	lockPath := filepath.Join(clusterDir, "leader.lock")
	const lockTTL = 300 * time.Millisecond

	// start leads the store at the next epoch, as serveMode does: lock,
	// store, journal replay, the server re-planning the stored specs.
	start := func(holder string, chaos *cluster.Chaos) (*server, *httptest.Server, func()) {
		t.Helper()
		lock := &cluster.LeaderLock{Path: lockPath, TTL: lockTTL, Holder: holder}
		var epoch int64
		var err error
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if epoch, err = lock.TryAcquire(); err == nil {
				break
			}
			if !errors.Is(err, cluster.ErrLockHeld) || time.Now().After(deadline) {
				t.Fatalf("%s: acquiring the leader lock: %v", holder, err)
			}
		}
		st, err := caem.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		jnl, jstate, err := journal.Open(clusterDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Begin(epoch, jstate); err != nil {
			t.Fatal(err)
		}
		srv, err := newServerWith(st, serverConfig{
			workers: 2,
			lease: cluster.Options{
				Epoch: epoch, Journal: jnl, MaxBatch: 1,
				Guard: func() error { return lock.Verify(epoch) },
			},
			chaos:  chaos,
			jstate: &jstate,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		return srv, ts, func() {
			ts.Close()
			srv.Shutdown(0)
			jnl.Close()
			st.Close()
		}
	}
	metric := func(base, name string) float64 {
		t.Helper()
		v, _ := scrapeMetrics(t, base+"/v1").Value(name)
		return v
	}

	var puts atomic.Int64
	holding := make(chan struct{})
	var holdOnce sync.Once
	held := make(chan struct{})
	leader, lts, kill := start("leader", &cluster.Chaos{FailStorePut: func(cluster.Cell) error {
		if puts.Add(1) <= 2 {
			return nil
		}
		holdOnce.Do(func() { close(holding) })
		<-held
		return errors.New("the leader died during this write")
	}})
	camp := postCampaign(t, lts.URL, heldWriteRequest)
	select {
	case <-holding:
	case <-time.After(60 * time.Second):
		t.Fatal("the leader never reached its third cell write")
	}
	var acked float64
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if acked = metric(lts.URL, "caem_lease_completed_total"); acked >= 2+3 || acked == float64(camp.Total) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the leader acknowledged only %v completions", acked)
		}
	}
	// The leader dies here: fenced, so nothing it still holds is
	// published, journaled or written past the hook, then torn down.
	leader.coord.Fence()
	close(held)
	kill()
	stored := float64(leader.store.Len())
	t.Logf("the leader died with %v completions acknowledged and %v cells stored", acked, stored)
	if acked < stored+3 {
		t.Fatalf("only %v of %v acknowledged completions went unwritten, want at least 3", acked-stored, acked)
	}

	successor, sts, stop := start("successor", nil)
	defer stop()
	final := waitDone(t, sts.URL, camp.ID)
	if final.State != "done" || final.Completed != final.Total || final.Failed != 0 {
		t.Fatalf("campaign after the failover = %+v", final)
	}
	if got, want := metric(sts.URL, "caem_cells_settled_total"), float64(final.Total)-stored; got != want {
		t.Fatalf("the successor settled %v cells, want the %v the store lacked", got, want)
	}
	if n := successor.store.Len(); n != final.Total {
		t.Fatalf("store holds %d cells, want %d", n, final.Total)
	}
	failedOver := getBytes(t, sts.URL+"/v1/campaigns/"+camp.ID+"/results")

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
	refCamp := postCampaign(t, refTS.URL, heldWriteRequest)
	if got := waitDone(t, refTS.URL, refCamp.ID); got.State != "done" {
		t.Fatalf("reference run failed: %+v", got)
	}
	if reference := getBytes(t, refTS.URL+"/v1/campaigns/"+refCamp.ID+"/results"); !bytes.Equal(failedOver, reference) {
		t.Fatalf("the failed-over results differ from a fault-free run's:\n--- failover\n%s\n--- fault-free\n%s", failedOver, reference)
	}
}

// startJournaledServer starts a server the way serveMode does: the
// journal under <dir>/cluster is replayed, the next epoch begins, and
// the server restores the replayed attempts and poisons before it
// re-plans the stored campaign specs. The journal's instruments share
// the server's registry.
func startJournaledServer(t *testing.T, dir string) (*server, *httptest.Server, *caem.CampaignStore) {
	t.Helper()
	st, err := caem.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl, jstate, err := journal.Open(filepath.Join(dir, "cluster"))
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	reg := obs.NewRegistry()
	jnl.Observe(reg)
	epoch := jstate.Epoch + 1
	if err := jnl.Begin(epoch, jstate); err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv, err := newServerWith(st, serverConfig{
		workers: 2,
		lease:   cluster.Options{Epoch: epoch, Journal: jnl},
		metrics: reg,
		jstate:  &jstate,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv), st
}

// TestRecoveryReplansUnderCurrentModel: a campaign in flight across a
// model upgrade. The store holds the campaign's spec, and the journal
// an epoch file of the format that also recorded submissions, whose
// submit record carries the campaign's cells under a stale hash (the
// hash an older model computed). A start re-plans the spec under the
// current model, so every cell is filed under its current CellHash and
// none under the stale one.
func TestRecoveryReplansUnderCurrentModel(t *testing.T) {
	dir := t.TempDir()
	var req campaignRequest
	if err := json.Unmarshal([]byte(testRequest), &req); err != nil {
		t.Fatal(err)
	}
	id, canonical, err := campaignID(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := caem.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCampaignSpec(id, canonical); err != nil {
		t.Fatal(err)
	}
	_, cells, err := (&server{store: st}).plan(id, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stale := strings.Repeat("0", len(cells[0].Hash))
	type submitCell struct {
		Key  string       `json:"k"`
		Cell cluster.Cell `json:"c"`
	}
	var submit struct {
		T     string       `json:"t"`
		Cells []submitCell `json:"cells"`
	}
	submit.T = "submit"
	for _, cell := range cells {
		old := cell
		old.Hash = stale
		submit.Cells = append(submit.Cells, submitCell{Key: old.Key(), Cell: old})
	}
	line, err := json.Marshal(submit)
	if err != nil {
		t.Fatal(err)
	}
	clusterDir := filepath.Join(dir, "cluster")
	if err := os.MkdirAll(clusterDir, 0o755); err != nil {
		t.Fatal(err)
	}
	epochFile := append([]byte(`{"t":"snap","epoch":1}`+"\n"), append(line, '\n')...)
	if err := os.WriteFile(filepath.Join(clusterDir, "epoch-1.jsonl"), epochFile, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts, st := startJournaledServer(t, dir)
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	if final := waitDone(t, ts.URL, id); final.State != "done" || final.Completed != len(cells) {
		t.Fatalf("recovered campaign = %+v, want done with %d cells", final, len(cells))
	}
	for _, cell := range cells {
		if !st.HasCell(cell.Hash, cell.Scenario.Name, cell.Config.Protocol, cell.Config.Seed) {
			t.Errorf("cell %s is not stored under its current hash", cell.Key())
		}
		if st.HasCell(stale, cell.Scenario.Name, cell.Config.Protocol, cell.Config.Seed) {
			t.Errorf("cell %s is stored under the stale hash", cell.Key())
		}
	}
}
