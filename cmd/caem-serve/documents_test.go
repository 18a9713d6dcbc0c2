package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/cluster"
	"repro/internal/cluster/journal"
)

// The document goldens run one small world: 10 nodes for 5 simulated
// seconds, three protocols. documentsPrefix stores seeds 1-2 first, so
// documentsRequest (seeds 1-4) restores six of its twelve cells and runs
// the other six, two of which chaos poisons.
const (
	documentsSpec    = `{"name":"documents","config":{"nodes":10,"durationSeconds":5}}`
	documentsPrefix  = `{"specs":[` + documentsSpec + `],"seeds":[1,2]}`
	documentsRequest = `{"specs":[` + documentsSpec + `],"seeds":[1,2,3,4]}`
)

// documentsPoisoned are the grid indices of documentsRequest whose
// every attempt fails: pure-LEACH seed 4 and CAEM-scheme1 seed 3.
var documentsPoisoned = map[int]bool{3: true, 6: true}

// documentsServer starts a coordinator with no local workers, journaled
// the way serveMode journals, so poisons survive a restart. One attempt
// poisons a failing cell, so no retry backoff can reorder settlements.
func documentsServer(t *testing.T, dir string) (*server, *httptest.Server, *caem.CampaignStore) {
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
	epoch := jstate.Epoch + 1
	if err := jnl.Begin(epoch, jstate); err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv, err := newServerWith(st, serverConfig{
		lease:  cluster.Options{Epoch: epoch, Journal: jnl, MaxAttempts: 1},
		jstate: &jstate,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv), st
}

// runWorker runs one in-process worker against the server's
// coordinator until the returned stop is called.
func runWorker(srv *server, chaos *cluster.Chaos) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	wk := &cluster.Worker{Queue: srv.coord, Name: "documents", Poll: 10 * time.Millisecond, Chaos: chaos}
	go func() {
		defer close(done)
		wk.Run(ctx)
	}()
	return func() { cancel(); <-done }
}

// checkDocument compares a served document with its golden under
// testdata/documents, rewriting the golden under -update.
func checkDocument(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "documents", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestDocumentsMatchGoldens pins the bytes of the campaign documents:
// the status document, the NDJSON progress lines and the results
// document (plain and top-k), for a campaign with done, restored and
// chaos-poisoned cells, read both live and after a restart. One worker
// runs every cell, so the order of settlements, and with it every
// progress line, is fixed.
func TestDocumentsMatchGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the documents carry simulated Results, pinned for amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	dir := t.TempDir()
	srv, ts, st := documentsServer(t, dir)

	prefix := postCampaign(t, ts.URL, documentsPrefix)
	stop := runWorker(srv, nil)
	if got := waitDone(t, ts.URL, prefix.ID); got.State != "done" {
		stop()
		t.Fatalf("prefix campaign = %+v", got)
	}
	stop()

	camp := postCampaign(t, ts.URL, documentsRequest)
	base := ts.URL + "/v1/campaigns/" + camp.ID
	checkDocument(t, "status-planned.json", getBytes(t, base))

	// Subscribe before any cell runs: the first line is the snapshot,
	// and every settlement after it is a line.
	resp, err := http.Get(base + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewReader(resp.Body)
	var progress bytes.Buffer
	first, err := lines.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	progress.Write(first)
	stop = runWorker(srv, &cluster.Chaos{FailCell: func(c cluster.Cell) error {
		if c.Campaign == camp.ID && documentsPoisoned[c.Index] {
			return fmt.Errorf("injected failure of cell %d", c.Index)
		}
		return nil
	}})
	for {
		line, err := lines.ReadBytes('\n')
		progress.Write(line)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	stop()
	checkDocument(t, "progress.ndjson", progress.Bytes())
	if got := waitDone(t, ts.URL, camp.ID); got.State != "failed" || got.Failed != len(documentsPoisoned) {
		t.Fatalf("campaign = %+v, want failed with %d poisoned cells", got, len(documentsPoisoned))
	}
	checkDocument(t, "status.json", getBytes(t, base))
	checkDocument(t, "results.json", getBytes(t, base+"/results"))
	checkDocument(t, "results-top.json", getBytes(t, base+"/results?metric=meanDelayMs&top=3"))

	ts.Close()
	srv.Shutdown(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted server restores every settled cell from the store and
	// re-reports the journaled poisons.
	srv, ts, st = documentsServer(t, dir)
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	base = ts.URL + "/v1/campaigns/" + camp.ID
	checkDocument(t, "status-restart.json", getBytes(t, base))
	checkDocument(t, "progress-restart.ndjson", getBytes(t, base+"/progress"))
	checkDocument(t, "results-restart.json", getBytes(t, base+"/results"))
	checkDocument(t, "results-top-restart.json", getBytes(t, base+"/results?metric=meanDelayMs&top=3"))
}
