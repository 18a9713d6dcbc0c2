package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// residencyCampaign is a settle-storm-shaped campaign: the benchmark's
// storm world (10 nodes, 5 simulated seconds), three protocols, and a
// block of seeds that campaign i alone uses, so no cell is restored.
func residencyCampaign(i, seeds int) string {
	ss := make([]uint64, seeds)
	for k := range ss {
		ss[k] = uint64(i)<<16 + uint64(k) + 1
	}
	blob, _ := json.Marshal(ss)
	return fmt.Sprintf(`{"specs":[{"name":"storm","config":{"nodes":10,"durationSeconds":5}}],"seeds":%s}`, blob)
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestResidentBytesPerSettledCell bounds the heap a settled cell pins
// for the life of the process: its status byte and results row in the
// campaign, its bit in the coordinator's settled set, and its key in
// the store's index. After a warm-up campaign, each of four campaigns
// of 1,050 cells runs to done and its results are read; the
// least-squares slope of the live heap over the settled cells must stay
// at or under 420 bytes per cell. The campaigns stay inside the store's
// active tail, which costs more per cell than a rolled segment, so the
// bound holds for a long-lived service too.
func TestResidentBytesPerSettledCell(t *testing.T) {
	const (
		seeds     = 350 // × 3 protocols = 1,050 cells per campaign
		campaigns = 4
		bound     = 420.0
	)
	srv, ts, st := startServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Shutdown(0); st.Close() }()

	run := func(i int) int {
		t.Helper()
		camp := postCampaign(t, ts.URL, residencyCampaign(i, seeds))
		if got := waitDone(t, ts.URL, camp.ID); got.State != "done" || got.Completed != got.Total {
			t.Fatalf("campaign %d = %+v", i, got)
		}
		getBytes(t, ts.URL+"/v1/campaigns/"+camp.ID+"/results?page_size=10")
		return camp.Total
	}
	run(0) // warm-up: worker pools, maps and buffers reach their steady size
	var xs, ys []float64
	cells := 0
	xs, ys = append(xs, 0), append(ys, liveHeap())
	for i := 1; i <= campaigns; i++ {
		cells += run(i)
		xs, ys = append(xs, float64(cells)), append(ys, liveHeap())
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i] / float64(len(xs))
		my += ys[i] / float64(len(ys))
	}
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	slope := sxy / sxx
	t.Logf("live heap over %d settled cells: %.0f B/cell (points %v)", cells, slope, ys)
	if slope > bound {
		t.Fatalf("each settled cell pins %.0f B of live heap, want at most %.0f", slope, bound)
	}
}
