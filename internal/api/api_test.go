package api

import (
	"encoding/base64"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	qh := QueryHash("scenario-a", "leach", "meanDelayMs")
	tok := EncodeCursor(42, qh)
	if strings.ContainsAny(tok, "+/=") {
		t.Fatalf("token %q is not base64url-without-padding", tok)
	}
	c, err := DecodeCursor(tok, qh)
	if err != nil {
		t.Fatal(err)
	}
	if c.Off != 42 || c.Q != qh || c.V != cursorVersion {
		t.Fatalf("decoded cursor = %+v", c)
	}
}

func TestCursorRejectsForeignQuery(t *testing.T) {
	tok := EncodeCursor(10, QueryHash("a"))
	if _, err := DecodeCursor(tok, QueryHash("b")); err == nil {
		t.Fatal("cursor minted under one query decoded under another")
	}
}

// rawToken hand-builds a token from an arbitrary cursor, bypassing
// EncodeCursor's invariants.
func rawToken(c Cursor) string {
	blob, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(blob)
}

func TestCursorRejectsGarbage(t *testing.T) {
	for name, tok := range map[string]string{
		"not base64":      "!!!!",
		"not json":        base64.RawURLEncoding.EncodeToString([]byte("{")),
		"negative offset": rawToken(Cursor{V: cursorVersion, Off: -1}),
		"future version":  rawToken(Cursor{V: 99, Off: 0}),
	} {
		if _, err := DecodeCursor(tok, ""); err == nil {
			t.Errorf("%s: token %q decoded without error", name, tok)
		}
	}
}

func TestQueryHashStable(t *testing.T) {
	if QueryHash("a", "b") == QueryHash("ab") {
		t.Fatal("hash does not separate parts")
	}
	if QueryHash("a", "b") != QueryHash("a", "b") {
		t.Fatal("hash is not deterministic")
	}
	if len(QueryHash()) != 12 {
		t.Fatalf("hash length = %d, want 12", len(QueryHash()))
	}
}

func TestWriteError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, 404, CodeNotFound, `no campaign "x"`, map[string]string{"id": "x"})
	if rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var body struct {
		Error Error `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != CodeNotFound || body.Error.Details["id"] != "x" {
		t.Fatalf("envelope = %+v", body.Error)
	}
}
