package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/sim"
)

// traceBuf collects the full protocol event stream as comparable text.
func traceBuf(cfg *Config) *bytes.Buffer {
	var b bytes.Buffer
	cfg.Trace = func(ev TraceEvent) {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%s\n", int64(ev.T), int(ev.Kind), ev.Node, ev.Value, ev.Detail)
	}
	return &b
}

// assertSameRun asserts two Results (and optional trace captures) are
// bit-identical. reflect.DeepEqual covers every metric, series sample,
// per-node report, and round report.
func assertSameRun(t *testing.T, label string, fresh, reused Result, freshTrace, reusedTrace *bytes.Buffer) {
	t.Helper()
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("%s: fresh and reused results differ\nfresh:  %d rounds, %d delivered, %v J consumed\nreused: %d rounds, %d delivered, %v J consumed",
			label, fresh.Rounds, fresh.Delivered, fresh.TotalConsumedJ, reused.Rounds, reused.Delivered, reused.TotalConsumedJ)
	}
	if freshTrace != nil {
		if !bytes.Equal(freshTrace.Bytes(), reusedTrace.Bytes()) {
			t.Fatalf("%s: fresh and reused trace streams differ (%d vs %d bytes)",
				label, freshTrace.Len(), reusedTrace.Len())
		}
	}
}

// TestResetEquivalence is the differential test behind the run-reuse
// engine: for every protocol, a Reset-then-Run on a dirtied context must
// be bit-identical — full Result and full protocol trace — to a fresh
// New-then-Run of the same configuration.
func TestResetEquivalence(t *testing.T) {
	for _, p := range []queueing.ThresholdPolicy{
		queueing.PolicyNone, queueing.PolicyAdaptive, queueing.PolicyFixedHighest,
	} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Policy = p
			fresh := cfg
			freshTrace := traceBuf(&fresh)
			want := New(fresh).Run()

			// Dirty a context with a different seed, policy, and load so
			// every piece of carried-over state (queues, batteries, link
			// matrix, election rotation, event arena, burst pool) is
			// nontrivially used before the reset.
			dirty := testConfig()
			dirty.Seed = cfg.Seed + 17
			dirty.Policy = queueing.PolicyAdaptive
			dirty.ArrivalRatePerSecond = 12
			net := New(dirty)
			net.Run()

			reused := cfg
			reusedTrace := traceBuf(&reused)
			net.Reset(reused)
			got := net.Run()

			assertSameRun(t, p.String(), want, got, freshTrace, reusedTrace)
		})
	}
}

// TestResetEquivalenceAcrossShapes resets a context to a different node
// count (the pool misses its shape and the context rebuilds what the new
// shape needs) and to a dynamic-world configuration, asserting the same
// bit-identity.
func TestResetEquivalenceAcrossShapes(t *testing.T) {
	small := testConfig()
	small.Nodes = 12
	big := testConfig()
	big.Nodes = 40
	big.World = []WorldEvent{
		{At: 10 * sim.Second, Apply: func(w *World) { w.Kill(3) }},
		{At: 20 * sim.Second, Apply: func(w *World) { w.Revive(3, 5) }},
		{At: 30 * sim.Second, Apply: func(w *World) { w.ScaleArrivalRate(5, 2) }},
	}

	wantSmall := New(small).Run()
	wantBig := New(big).Run()

	net := New(big)
	net.Run()
	net.Reset(small)
	gotSmall := net.Run()
	net.Reset(big)
	gotBig := net.Run()

	assertSameRun(t, "big->small", wantSmall, gotSmall, nil, nil)
	assertSameRun(t, "small->big", wantBig, gotBig, nil, nil)
}

// TestResetRepeatedStaysIdentical runs the same configuration many times
// on one context; every run must reproduce the first bit-for-bit (no
// state bleed accumulates across resets).
func TestResetRepeatedStaysIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 30 * sim.Second
	want := New(cfg).Run()
	net := New(cfg)
	net.Run()
	for i := 0; i < 4; i++ {
		net.Reset(cfg)
		got := net.Run()
		assertSameRun(t, fmt.Sprintf("reset %d", i), want, got, nil, nil)
	}
}

// FuzzResetEquivalence drives the differential property over the
// randomized configuration space: any valid configuration must produce
// bit-identical results fresh and reused, whatever configuration dirtied
// the context first.
func FuzzResetEquivalence(f *testing.F) {
	// Seed corpus: one entry per protocol plus cross-shape and stressed
	// variants, mirroring the deterministic differential tests.
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(7), uint64(7))
	f.Add(uint64(42), uint64(1000))
	f.Add(uint64(2024), uint64(5))
	f.Add(uint64(99), uint64(3))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64) {
		ra := rng.NewSource(seedA).Stream("fuzz-reset", 0)
		rb := rng.NewSource(seedB).Stream("fuzz-reset", 1)
		cfg := randomConfig(ra, int(seedA%97))
		dirty := randomConfig(rb, int(seedB%89))
		cfg.Horizon = 15 * sim.Second
		dirty.Horizon = 10 * sim.Second

		want := New(cfg).Run()
		net := New(dirty)
		net.Run()
		net.Reset(cfg)
		got := net.Run()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("fresh and reused results differ for cfg %+v after dirty %+v", cfg, dirty)
		}
	})
}
