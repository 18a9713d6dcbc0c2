package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/obs"
)

// claimBody is a raw claim request naming the given model and GOARCH.
func claimBody(worker string, model int, goarch string) string {
	return fmt.Sprintf(`{"worker":%q,"model":%d,"goarch":%q}`, worker, model, goarch)
}

// TestClaimModelMismatch: a claim naming another model version or
// another GOARCH is refused with 409 model_mismatch, whose details name
// both pairs, and a claim without them counts as another model. A
// matching claim is served.
func TestClaimModelMismatch(t *testing.T) {
	sink := newTestSink()
	c := NewCoordinator(sink, Options{LeaseTTL: time.Minute})
	defer c.Stop()
	c.Submit(testCells(t, 1))
	mux := http.NewServeMux()
	c.RegisterHTTPObserved(mux, obs.NewRegistry())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	want := fmt.Sprintf("model %d on %s", caem.ModelVersion, runtime.GOARCH)
	for _, tc := range []struct{ name, body, got string }{
		{"older model", claimBody("w1", caem.ModelVersion-1, runtime.GOARCH),
			fmt.Sprintf("model %d on %s", caem.ModelVersion-1, runtime.GOARCH)},
		{"other GOARCH", claimBody("w1", caem.ModelVersion, "not-"+runtime.GOARCH),
			fmt.Sprintf("model %d on not-%s", caem.ModelVersion, runtime.GOARCH)},
		{"no model", `{"worker":"w1"}`, "model 0 on "},
	} {
		resp, err := http.Post(ts.URL+"/v1/leases/claim", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error api.Error `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || derr != nil || body.Error.Code != api.CodeModelMismatch {
			t.Fatalf("%s: claim = %s, code %q (%v), want 409 %s", tc.name, resp.Status, body.Error.Code, derr, api.CodeModelMismatch)
		}
		if d := body.Error.Details; d["want"] != want || d["got"] != tc.got {
			t.Errorf("%s: details = %v, want want=%q got=%q", tc.name, d, want, tc.got)
		}
	}
	if st := c.Status(); len(st.Leases) != 0 {
		t.Fatalf("refused claims granted %d leases", len(st.Leases))
	}

	lease, err := (&Remote{Base: ts.URL}).Claim("w1", 0)
	if err != nil || lease == nil {
		t.Fatalf("claim with this build's model = %+v, %v; want a lease", lease, err)
	}
}

// TestSettleBodyLimit: a claim, complete or release body of exactly
// maxLeaseBody bytes is read and judged on its content (a claim on an
// empty queue: 204; an unknown lease: 410), and one byte more answers
// 413 invalid_request without being decoded.
func TestSettleBodyLimit(t *testing.T) {
	c := NewCoordinator(newTestSink(), Options{LeaseTTL: time.Minute})
	defer c.Stop()
	mux := http.NewServeMux()
	c.RegisterHTTPObserved(mux, obs.NewRegistry())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	const settle = `{"results":[]}`
	for _, rt := range []struct {
		route, path, body string
		status            int    // the answer to a body exactly at the limit
		code              string // its error code; "" for a 204
	}{
		{"claim", "claim", claimBody("limit", caem.ModelVersion, runtime.GOARCH), http.StatusNoContent, ""},
		{"complete", "no-such-lease/complete", settle, http.StatusGone, api.CodeGone},
		{"release", "no-such-lease/release", settle, http.StatusGone, api.CodeGone},
	} {
		t.Run(rt.route, func(t *testing.T) {
			for _, tc := range []struct {
				size   int
				status int
				code   string
			}{
				{maxLeaseBody, rt.status, rt.code},
				{maxLeaseBody + 1, http.StatusRequestEntityTooLarge, api.CodeInvalidRequest},
			} {
				padded := strings.Repeat(" ", tc.size-len(rt.body)) + rt.body
				resp, err := http.Post(ts.URL+"/v1/leases/"+rt.path, "application/json", strings.NewReader(padded))
				if err != nil {
					t.Fatal(err)
				}
				var env struct {
					Error api.Error `json:"error"`
				}
				var derr error
				if tc.code != "" {
					derr = json.NewDecoder(resp.Body).Decode(&env)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.status || derr != nil || env.Error.Code != tc.code {
					t.Fatalf("%d-byte body: %s, code %q (%v); want %d %s", tc.size, resp.Status, env.Error.Code, derr, tc.status, tc.code)
				}
			}
		})
	}
}

// TestWorkerStopsOnModelMismatch: a worker whose claim meets a
// model_mismatch refusal returns ErrModelMismatch from Run after that
// one claim, instead of retrying.
func TestWorkerStopsOnModelMismatch(t *testing.T) {
	var claims atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/leases/claim", func(w http.ResponseWriter, r *http.Request) {
		claims.Add(1)
		api.WriteError(w, http.StatusConflict, api.CodeModelMismatch, ErrModelMismatch.Error(),
			map[string]string{"want": "model 99 on amd64", "got": "model 2 on amd64"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w := &Worker{Queue: &Remote{Base: ts.URL}, Name: "stale", Poll: 10 * time.Millisecond}
	err := w.Run(ctx)
	if !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("Run = %v, want ErrModelMismatch", err)
	}
	if !strings.Contains(err.Error(), "model 99 on amd64") {
		t.Errorf("error %q does not name the coordinator's model", err)
	}
	if n := claims.Load(); n != 1 {
		t.Fatalf("worker claimed %d times, want 1", n)
	}
}
