package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

var fixture = []string{"testdata/fixture", "testdata/fixture/tool"}

// TestFixtureReport runs the gate on a fixture module that declares one
// name of each kind: dead, self-recursive, tests only, reached through
// fmt.Stringer, through an anonymous interface, or through an embedded
// field, used by a second module, allowlisted, a stale allowlist entry,
// and a dead helper beside a command's func main, which is exempt.
func TestFixtureReport(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(fixture, "testdata/fixture/allowlist.txt", &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("the gate passed a fixture with findings")
	}
	const want = `cmd/app/main.go:19: cmd/app.helper: no use
internal/lib/lib.go:7: internal/lib.Dead: no use
internal/lib/lib.go:9: internal/lib.countdown: no use
internal/lib/lib.go:20: internal/lib.Counter.Tested: tests only
testdata/fixture/allowlist.txt: internal/lib.Gone: allowlisted, but nothing reports it
`
	if got := out.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}

func TestFixturePassesWhenAllowlisted(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	list := "cmd/app.helper r\ninternal/lib.Dead r\ninternal/lib.countdown r\ninternal/lib.Counter.Tested r\ninternal/lib.Hook r\n"
	if err := os.WriteFile(allow, []byte(list), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := run(fixture, allow, &out)
	if err != nil {
		t.Fatal(err)
	}
	const want = "deadcheck passed: every name under fixture/internal/ and fixture/cmd/ has a use outside tests (5 allowlisted)\n"
	if !ok || out.String() != want {
		t.Errorf("ok %v, report:\n%s\nwant:\n%s", ok, out.String(), want)
	}
}
