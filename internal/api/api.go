// Package api defines the wire conventions shared by every HTTP
// surface of the campaign service — the /v1 error envelope and the
// opaque pagination cursor — so cmd/caem-serve and internal/cluster
// speak the same dialect without importing each other.
package api

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Stable machine-readable error codes of the /v1 surface. Clients
// branch on Code; Message is for humans and may change freely.
const (
	CodeInvalidRequest = "invalid_request"
	CodeNotFound       = "not_found"
	CodeGone           = "gone"
	CodeFenced         = "fenced"
	CodeModelMismatch  = "model_mismatch"
	CodeUnavailable    = "unavailable"
	CodeInternal       = "internal"
)

// Error is the body of every non-2xx /v1 response:
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
type Error struct {
	Code    string            `json:"code"`
	Message string            `json:"message"`
	Details map[string]string `json:"details,omitempty"`
}

type errorBody struct {
	Error Error `json:"error"`
}

// WriteError writes the uniform error envelope with the given HTTP
// status.
func WriteError(w http.ResponseWriter, status int, code, message string, details map[string]string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(errorBody{Error: Error{Code: code, Message: message, Details: details}})
}

// BodyStatus is the status that answers a request body which failed to
// decode: 413 when it passed its http.MaxBytesReader limit, 400 for any
// other fault. Both carry CodeInvalidRequest.
func BodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// cursorVersion is bumped when the cursor schema changes; tokens from
// another version are rejected rather than misread.
const cursorVersion = 1

// Cursor is the decoded form of a page_token: schema version, the
// offset the next page starts at, and a hash of the filter parameters
// the token was minted under. Binding the token to its query means a
// cursor replayed against different filters fails loudly instead of
// paging silently through the wrong result set.
type Cursor struct {
	V   int    `json:"v"`
	Off int    `json:"o"`
	Q   string `json:"q,omitempty"`
}

// EncodeCursor mints an opaque page token: base64url over the JSON
// cursor. Opaque means clients must not construct or inspect tokens —
// only replay them.
func EncodeCursor(off int, queryHash string) string {
	blob, _ := json.Marshal(Cursor{V: cursorVersion, Off: off, Q: queryHash})
	return base64.RawURLEncoding.EncodeToString(blob)
}

// DecodeCursor validates and decodes a page token minted by
// EncodeCursor under the same filter hash.
func DecodeCursor(token, queryHash string) (Cursor, error) {
	blob, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return Cursor{}, fmt.Errorf("api: page_token is not valid base64url: %w", err)
	}
	var c Cursor
	if err := json.Unmarshal(blob, &c); err != nil {
		return Cursor{}, fmt.Errorf("api: page_token does not decode: %w", err)
	}
	if c.V != cursorVersion {
		return Cursor{}, fmt.Errorf("api: page_token version %d not supported", c.V)
	}
	if c.Off < 0 {
		return Cursor{}, fmt.Errorf("api: page_token offset %d out of range", c.Off)
	}
	if c.Q != queryHash {
		return Cursor{}, fmt.Errorf("api: page_token was issued for a different query")
	}
	return c, nil
}

// QueryHash canonicalizes the filter parameters a cursor binds to:
// a short hash over the NUL-joined parts.
func QueryHash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
