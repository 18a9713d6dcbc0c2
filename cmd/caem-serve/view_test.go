package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/cluster"
)

// handResult fabricates a cell's result, so a test can settle leases by
// hand without simulating. Values repeat across the grid, so top-k
// meets ties; none is NaN, which the store cannot hold.
func handResult(cell cluster.Cell) *caem.Result {
	k := float64(cell.Index % 5)
	return &caem.Result{
		Protocol:              cell.Config.Protocol,
		DurationSeconds:       12,
		TotalConsumedJ:        10 + k*math.Pi,
		DeliveryRate:          1 / (k + 2),
		MeanDelayMs:           7.5 * float64(cell.Index%4),
		P95DelayMs:            math.Sqrt(k + 1),
		EnergyPerPacketMilliJ: math.Log(k + 2),
		AliveAtEnd:            20 + cell.Index%3,
		Generated:             200,
		Delivered:             uint64(100 + cell.Index),
	}
}

// settleByHand claims leases of at most three cells from the
// coordinator and completes each with handResult until the queue is
// empty or at least limit cells settled (limit <= 0: no limit), calling
// check after every settlement. Complete returns once the lease is
// accepted, so settleByHand waits until the sink has written every cell
// of the lease into its campaign: check always runs between two
// settlements.
func settleByHand(t *testing.T, srv *server, limit int, check func()) {
	t.Helper()
	for settled := 0; limit <= 0 || settled < limit; {
		l, err := srv.coord.Claim("by-hand", 3)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			return
		}
		results := make([]cluster.CellResult, len(l.Cells))
		for i, cell := range l.Cells {
			results[i] = cluster.CellResult{Campaign: cell.Campaign, Index: cell.Index, Result: handResult(cell)}
		}
		if err := srv.coord.Complete(l.ID, results); err != nil {
			t.Fatal(err)
		}
		for _, cell := range l.Cells {
			waitSettledCell(t, srv, cell)
		}
		settled += len(l.Cells)
		check()
	}
}

// waitSettledCell waits until the cell's campaign holds it as settled.
func waitSettledCell(t *testing.T, srv *server, cell cluster.Cell) {
	t.Helper()
	c := srv.campaignByID(cell.Campaign)
	for deadline := time.Now().Add(30 * time.Second); ; {
		c.mu.Lock()
		done := c.status[cell.Index].terminal()
		c.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cell %s never settled", cell.Key())
		}
		time.Sleep(time.Millisecond)
	}
}

// storeResultsDoc builds the results document the way the service did
// before it kept a results view: every read looks each cell of the
// campaign grid up in the store, filters what it finds and aggregates
// it. It is the reference TestResultsViewMatchesStore compares the view
// against.
func storeResultsDoc(t *testing.T, st *caem.CampaignStore, c *campaign, rawQuery string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/campaigns/"+c.id+"/results?"+rawQuery, nil)
	q, ps, qhash, ok := resultsQuery(rec, r)
	if !ok {
		t.Fatalf("query %q: %s", rawQuery, rec.Body)
	}
	size, cur, ok := pageParams(rec, r, qhash)
	if !ok {
		t.Fatalf("query %q: %s", rawQuery, rec.Body)
	}
	var all []caem.CampaignCell
	for i := range c.status {
		si, p, seed := c.axes(i)
		cell, ok, err := st.LookupCell(c.hashes[si], c.scenarios[si].Name, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			all = append(all, cell)
		}
	}
	cells, err := caem.FilterCells(all, q)
	if err != nil {
		t.Fatal(err)
	}
	doc := resultsResponse{
		ID: c.id, State: c.snapshot().State, Total: len(c.status), Completed: len(all),
		Aggregates: wireAggregates(caem.AggregateCampaign(cells)),
	}
	if len(ps) > 0 {
		if doc.Surfaces, err = caem.PercentileSurface(cells, q.Metric, ps); err != nil {
			t.Fatal(err)
		}
	}
	start, end := pageBounds(len(cells), size, cur)
	doc.Cells = wireCells(cells[start:end])
	if end < len(cells) {
		doc.NextPageToken = api.EncodeCursor(end, qhash)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// viewRequest is an 18-cell grid (three protocols × six seeds) that
// the view tests settle by hand, so it never simulates.
const viewRequest = `{
  "scenarios": ["node-churn"],
  "seeds": [1, 2, 3, 4, 5, 6],
  "config": {"durationSeconds": 12}
}`

// TestResultsViewMatchesStore is the differential gate for the results
// view: between every two settlements, and across a restart that
// restores half the grid from the store, each query shape must answer
// byte for byte what a rebuild from the store answers, and the results
// `completed` must equal the status `completed`.
func TestResultsViewMatchesStore(t *testing.T) {
	dir := t.TempDir()
	shapes := []string{
		"",
		"protocol=scheme1",
		"metric=meanDelayMs&min=5&max=20",
		"metric=meanDelayMs&top=7",
		"metric=deliveryRate&percentiles=0,50,95&page_size=5",
	}
	compare := func(srv *server, ts *httptest.Server, st *caem.CampaignStore, id, stage string) {
		t.Helper()
		c := srv.campaignByID(id)
		var status campaignStatus
		getJSON(t, ts.URL+"/v1/campaigns/"+id, &status)
		for _, shape := range shapes {
			got := getBytes(t, ts.URL+"/v1/campaigns/"+id+"/results?"+shape)
			if want := storeResultsDoc(t, st, c, shape); !bytes.Equal(got, want) {
				t.Fatalf("%s, query %q: the view diverges from a store rebuild:\n view %s\nstore %s", stage, shape, got, want)
			}
			var doc resultsResponse
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Completed != status.Completed {
				t.Fatalf("%s, query %q: results completed = %d, status completed = %d",
					stage, shape, doc.Completed, status.Completed)
			}
		}
	}

	srv, ts, st := startServerNoWorkers(t, dir)
	camp := postCampaign(t, ts.URL, viewRequest)
	if camp.Total != 18 {
		t.Fatalf("campaign has %d cells, want 18", camp.Total)
	}
	compare(srv, ts, st, camp.ID, "before any settlement")
	step := 0
	settleByHand(t, srv, 9, func() {
		step++
		compare(srv, ts, st, camp.ID, fmt.Sprintf("settlement %d", step))
	})
	ts.Close()
	srv.Shutdown(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted server restores the settled half from the store and
	// loads it into the view on the first results read.
	srv, ts, st = startServerNoWorkers(t, dir)
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()
	c := srv.campaignByID(camp.ID)
	if got := c.snapshot(); got.Completed < 9 || got.Completed == got.Total {
		t.Fatalf("after restart the campaign reads %d/%d completed, want a partly restored grid", got.Completed, got.Total)
	}
	c.mu.Lock()
	allocated := c.results != nil
	c.mu.Unlock()
	if allocated {
		t.Fatal("recovery allocated the results view before any results read")
	}
	compare(srv, ts, st, camp.ID, "after restart")
	settleByHand(t, srv, 0, func() {
		step++
		compare(srv, ts, st, camp.ID, fmt.Sprintf("settlement %d", step))
	})
	if got := srv.campaignByID(camp.ID).snapshot(); got.State != "done" {
		t.Fatalf("campaign ended %q, want done", got.State)
	}
}

// TestResultsViewAllocsFlat pins the results view's read path: once a
// campaign has been read, reading its view allocates the same for 4
// cells as for 66, whether the cells settled live or were restored
// from the store. A per-cell store read or decode on that path fails
// this test.
func TestResultsViewAllocsFlat(t *testing.T) {
	const (
		small = `{"scenarios": ["node-churn"], "protocols": ["leach", "scheme1"], "seeds": [1, 2], "config": {"durationSeconds": 12}}`
		large = `{"scenarios": ["node-churn"], "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22], "config": {"durationSeconds": 12}}`
	)
	// allocs reads the view once, then measures further reads. The
	// server is closed first, so no coordinator goroutine allocates
	// during the measurement.
	allocs := func(srv *server, id string, cells int) float64 {
		t.Helper()
		c := srv.campaignByID(id)
		got, _, err := srv.view(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cells {
			t.Fatalf("view holds %d cells, want %d", len(got), cells)
		}
		return testing.AllocsPerRun(100, func() {
			if _, _, err := srv.view(c); err != nil {
				t.Fatal(err)
			}
		})
	}

	dir := t.TempDir()
	srv, ts, st := startServerNoWorkers(t, dir)
	ids := []string{postCampaign(t, ts.URL, small).ID, postCampaign(t, ts.URL, large).ID}
	settleByHand(t, srv, 0, func() {})
	ts.Close()
	srv.Shutdown(0)
	if a, b := allocs(srv, ids[0], 4), allocs(srv, ids[1], 66); a != b {
		t.Fatalf("settled view read: %v allocs at 4 cells, %v at 66", a, b)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts, st = startServerNoWorkers(t, dir)
	defer st.Close()
	ts.Close()
	srv.Shutdown(0)
	if a, b := allocs(srv, ids[0], 4), allocs(srv, ids[1], 66); a != b {
		t.Fatalf("restored view read: %v allocs at 4 cells, %v at 66", a, b)
	}
}
