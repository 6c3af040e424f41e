package main

import (
	"testing"

	"prism/internal/sim"
)

// tinyScale runs every workload in milliseconds of wall time.
var tinyScale = scale{
	warmup:          5 * sim.Millisecond,
	duration:        20 * sim.Millisecond,
	clusterWarmup:   5 * sim.Millisecond,
	clusterDuration: 20 * sim.Millisecond,
	hosts:           4,
	containers:      48,
}

// TestSmoke runs one round of every workload at a tiny scale, with the
// warm-up and traced rounds of a full pass.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range runPass(expectSeed, tinyScale, 1, nil) {
		if tl.failed > 0 {
			t.Errorf("%s: %v", tl.w.name, tl.failures)
			continue
		}
		// Every metric BENCHMARK.json names is emitted, finite and in its
		// declared unit.
		r := tl.result(clockCost())
		for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			if _, err := resultLine(r, list); err != nil {
				t.Errorf("%s: %v", tl.w.name, err)
			}
		}
		// The traced rep's wrappers are neutral.
		if tl.traced == nil || len(tl.timed) != 1 || tl.traced.digest != tl.timed[0].digest {
			t.Errorf("%s: traced digest differs from the untraced rep's", tl.w.name)
		}
	}
}

// TestGateFails checks that the correctness gate can fail: against a
// corrupted expected digest every rep fails.
func TestGateFails(t *testing.T) {
	w, _ := findWorkload("flood")
	good := newTally(w, expectSeed, tinyScale, nil)
	good.rep(timed)
	if good.failed > 0 {
		t.Fatal(good.failures)
	}
	bad := *good.ref
	bad.Core = "0" + bad.Core[1:]
	if bad.Core == good.ref.Core {
		bad.Core = "1" + bad.Core[1:]
	}
	tl := newTally(w, expectSeed, tinyScale, &bad)
	tl.rep(warmup)
	tl.rep(timed)
	if got := tl.result(0).Metrics["fail_frac"].Value; got != 1 {
		t.Fatalf("fail_frac = %v against a corrupted digest, want 1", got)
	}
}
