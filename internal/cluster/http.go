package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/caem"
	"repro/internal/api"
	"repro/internal/obs"
)

// Wire bodies of the lease protocol. Leases and results reuse the Lease
// and CellResult JSON forms directly.
type claimRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
	// Model and GOARCH are the worker's caem.ModelVersion and
	// runtime.GOARCH. Both must match the coordinator's: until Results
	// are portable across architectures, the same model on another
	// GOARCH may round differently.
	Model  int    `json:"model"`
	GOARCH string `json:"goarch"`
}

// modelName spells a (model, GOARCH) pair for a model_mismatch answer.
func modelName(model int, goarch string) string {
	return fmt.Sprintf("model %d on %s", model, goarch)
}

type settleRequest struct {
	Results []CellResult `json:"results"`
}

// maxLeaseBody caps the body of every lease request. The largest is a
// complete or release, which carries one lease's results: a full-scale
// Result marshals to 28–34 KB and a lease holds at most MaxBatch (8 by
// default) of them, about 272 KB; the largest body the tests and the
// benchmark send is under 36 KB. 8 MiB leaves 30× headroom over a full
// lease of full-scale cells. A claim is a few dozen bytes.
const maxLeaseBody = 8 << 20

// readLease decodes a lease request body into v, read through
// http.MaxBytesReader. On failure it answers invalid_request itself
// (413 past the limit, 400 otherwise) and returns false.
func readLease(w http.ResponseWriter, r *http.Request, route string, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLeaseBody)).Decode(v); err != nil {
		api.WriteError(w, api.BodyStatus(err), api.CodeInvalidRequest,
			fmt.Sprintf("bad %s body: %v", route, err), nil)
		return false
	}
	return true
}

// RegisterHTTPObserved mounts the lease protocol and cluster
// observability on mux, each route once under /v1, with per-route
// request-count and latency instrumentation on reg, labeled by the mux
// pattern:
//
//	POST /v1/leases/claim         {"worker","max","model","goarch"} → 200 Lease | 204 no work | 409 model_mismatch | 413 past maxLeaseBody
//	POST /v1/leases/{id}/renew    → 204 | 410 lease gone
//	POST /v1/leases/{id}/complete {"results":[...]} → 204 accepted (written after) | 410 | 413 past maxLeaseBody
//	POST /v1/leases/{id}/release  {"results":[...]} → 204 | 410 | 413 past maxLeaseBody
//	GET  /v1/cluster/status       → Status
//
// Errors use the uniform api envelope; 410 Gone maps to ErrLeaseGone on
// the Remote side, where the worker drops the batch and claims fresh
// work. A claim whose model or GOARCH differs from the coordinator's is
// refused with 409 model_mismatch, whose details name the wanted and
// the claimed pair; the Remote maps it to ErrModelMismatch.
func (c *Coordinator) RegisterHTTPObserved(mux *http.ServeMux, reg *obs.Registry) {
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.WrapHandler(reg, pattern, h))
	}
	handle("POST /v1/leases/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if !readLease(w, r, "claim", &req) {
			return
		}
		if req.Worker == "" {
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidRequest,
				"claim needs a worker name", nil)
			return
		}
		if req.Model != caem.ModelVersion || req.GOARCH != runtime.GOARCH {
			api.WriteError(w, http.StatusConflict, api.CodeModelMismatch, ErrModelMismatch.Error(),
				map[string]string{
					"want": modelName(caem.ModelVersion, runtime.GOARCH),
					"got":  modelName(req.Model, req.GOARCH),
				})
			return
		}
		lease, err := c.Claim(req.Worker, req.Max)
		if err != nil {
			switch {
			case errors.Is(err, ErrDraining):
				// 503 + Retry-After: workers back off and retry (or fail over
				// to a standby) instead of tight-looping against a drain.
				sec := int(c.opts.LeaseTTL.Seconds())
				if sec < 1 {
					sec = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(sec))
				api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, err.Error(), nil)
			case errors.Is(err, ErrFenced):
				api.WriteError(w, http.StatusGone, api.CodeFenced, err.Error(), nil)
			default:
				api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
			}
			return
		}
		if lease == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(lease)
	})
	handle("POST /v1/leases/{id}/renew", func(w http.ResponseWriter, r *http.Request) {
		settleHTTP(w, c.Renew(r.PathValue("id")))
	})
	handle("POST /v1/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req settleRequest
		if readLease(w, r, "complete", &req) {
			settleHTTP(w, c.Complete(r.PathValue("id"), req.Results))
		}
	})
	handle("POST /v1/leases/{id}/release", func(w http.ResponseWriter, r *http.Request) {
		var req settleRequest
		if readLease(w, r, "release", &req) {
			settleHTTP(w, c.Release(r.PathValue("id"), req.Results))
		}
	})
	handle("GET /v1/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Status())
	})
}

func settleHTTP(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrFenced):
		// Same 410 as a gone lease — the worker must drop the batch either
		// way — but with a distinct code so it also re-resolves the leader.
		api.WriteError(w, http.StatusGone, api.CodeFenced, err.Error(), nil)
	case errors.Is(err, ErrLeaseGone):
		api.WriteError(w, http.StatusGone, api.CodeGone, err.Error(), nil)
	case err != nil:
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// Remote is the worker-side Queue over HTTP: the client half of
// RegisterHTTPObserved, used by cmd/caem-serve -join. Its claims name
// this build's caem.ModelVersion and GOARCH, so a worker that predates
// the model check cannot join this coordinator.
//
// For failover deployments list every coordinator (primary and
// standbys) in Bases: a connection failure, a fenced response, or a
// 503 rotates the Remote to the next URL, so a worker converges on
// whichever member currently leads without any explicit signal.
type Remote struct {
	// Base is the coordinator's base URL (no trailing slash needed).
	// Ignored when Bases is non-empty.
	Base string
	// Bases lists every coordinator URL in the cluster, primary first
	// by convention. The Remote targets one at a time and rotates on
	// failure.
	Bases []string
	// Client overrides http.DefaultClient when non-nil.
	Client *http.Client

	mu  sync.Mutex
	cur int
}

func (r *Remote) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

func (r *Remote) allBases() []string {
	if len(r.Bases) > 0 {
		return r.Bases
	}
	return []string{r.Base}
}

// base returns the currently targeted coordinator URL.
func (r *Remote) base() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.allBases()
	return strings.TrimRight(b[r.cur%len(b)], "/")
}

// rotate advances to the next coordinator URL after a failure talking
// to the current one. With a single base it is a no-op.
func (r *Remote) rotate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.allBases()); n > 1 {
		r.cur = (r.cur + 1) % n
	}
}

// retarget points the Remote at url. A url matching one of the
// configured bases (modulo trailing slash) is selected in place; an
// unknown url — a leader advertising an address that was not in the
// worker's -join list, common when the cluster re-addresses across a
// failover — is adopted into Bases and targeted, so ResolveLeader
// converges on the advertised leader instead of blindly rotating
// through stale configured members.
func (r *Remote) retarget(url string) {
	want := strings.TrimRight(url, "/")
	if want == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range r.allBases() {
		if strings.TrimRight(b, "/") == want {
			r.cur = i
			return
		}
	}
	if len(r.Bases) == 0 {
		r.Bases = append(r.Bases, strings.TrimRight(r.Base, "/"))
	}
	r.Bases = append(r.Bases, want)
	r.cur = len(r.Bases) - 1
}

// decodeError maps a non-2xx response to the protocol error it
// carries, branching on the envelope code where the status alone is
// ambiguous (410 is both "lease gone" and "fenced").
func decodeError(path string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	var body struct {
		Error api.Error `json:"error"`
	}
	code := ""
	if json.Unmarshal(msg, &body) == nil {
		code = body.Error.Code
	}
	switch {
	case code == api.CodeFenced:
		return ErrFenced
	case code == api.CodeModelMismatch:
		return fmt.Errorf("%w: the coordinator wants %s, this worker runs %s",
			ErrModelMismatch, body.Error.Details["want"], body.Error.Details["got"])
	case resp.StatusCode == http.StatusGone:
		return ErrLeaseGone
	case resp.StatusCode == http.StatusServiceUnavailable:
		return &UnavailableError{RetryAfter: retryAfterHint(resp)}
	}
	return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
}

// retryAfterHint reads a 503's Retry-After seconds, defaulting to 1s.
func retryAfterHint(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}

// checkFailover rotates to the next coordinator URL on errors that
// mean "this member cannot serve me": connection failures, fenced
// epochs, and 503s (a standby that has not taken over yet).
func (r *Remote) checkFailover(err error) {
	var ua *UnavailableError
	if errors.Is(err, ErrFenced) || errors.As(err, &ua) {
		r.rotate()
	}
}

// post sends a JSON body and decodes a 2xx response into out (when
// non-nil), reporting whether the answer had a body: a 204 returns
// false and leaves out untouched. Error answers map through
// decodeError (410 to ErrLeaseGone or ErrFenced by envelope code, 409
// model_mismatch to ErrModelMismatch, 503 to *UnavailableError).
func (r *Remote) post(path string, body, out any) (bool, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return false, fmt.Errorf("cluster: %w", err)
	}
	resp, err := r.client().Post(r.base()+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		r.rotate()
		return false, fmt.Errorf("cluster: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode >= 300:
		perr := decodeError(path, resp)
		r.checkFailover(perr)
		return false, perr
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return true, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return true, fmt.Errorf("cluster: decoding %s answer: %w", path, err)
	}
	return true, nil
}

// Claim implements Queue.
func (r *Remote) Claim(worker string, max int) (*Lease, error) {
	var lease Lease
	req := claimRequest{Worker: worker, Max: max, Model: caem.ModelVersion, GOARCH: runtime.GOARCH}
	if ok, err := r.post("/v1/leases/claim", req, &lease); !ok || err != nil {
		return nil, err
	}
	return &lease, nil
}

// ResolveLeader asks the currently targeted member (leader or standby)
// who leads and re-targets the Remote at that URL when it is among the
// configured bases. Workers call it after a fenced response to skip
// straight to the new leader instead of probing bases in order.
func (r *Remote) ResolveLeader() (LeaderInfo, error) {
	resp, err := r.client().Get(r.base() + "/v1/cluster/leader")
	if err != nil {
		r.rotate()
		return LeaderInfo{}, fmt.Errorf("cluster: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return LeaderInfo{}, decodeError("leader", resp)
	}
	var info LeaderInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return LeaderInfo{}, fmt.Errorf("cluster: decoding leader info: %w", err)
	}
	if info.LeaderURL != "" {
		r.retarget(info.LeaderURL)
	}
	return info, nil
}

// Renew implements Queue.
func (r *Remote) Renew(leaseID string) error {
	_, err := r.post("/v1/leases/"+leaseID+"/renew", struct{}{}, nil)
	return err
}

// Complete implements Queue.
func (r *Remote) Complete(leaseID string, results []CellResult) error {
	_, err := r.post("/v1/leases/"+leaseID+"/complete", settleRequest{Results: results}, nil)
	return err
}

// Release implements Queue.
func (r *Remote) Release(leaseID string, results []CellResult) error {
	_, err := r.post("/v1/leases/"+leaseID+"/release", settleRequest{Results: results}, nil)
	return err
}
