package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prism/internal/prio"
)

// The golden equivalence fixtures pin the datapath's observable behavior
// bit-for-bit: they were captured on the pre-softirq-refactor engines
// (internal/napi + internal/core as two forked loops) and every later
// datapath change must reproduce them exactly. Regenerate only when a
// behavior change is intended:
//
//	go test ./internal/experiments -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden datapath fixtures")

const goldenPath = "testdata/datapath_golden.json"

// goldenFile is the committed equivalence fixture: the paper-figure
// results (Fig. 3/8/9/11) at determinism-test scale.
type goldenFile struct {
	Fig3  Fig3Result
	Fig8  Fig8Result
	Fig9  Fig9Result
	Fig11 Fig11Result
}

// goldenFig11Loads keeps the sweep small enough for a committed fixture
// while still covering idle, mid, and saturating load.
var goldenFig11Loads = []float64{0, 100_000, 300_000}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func captureGolden(t *testing.T) goldenFile {
	t.Helper()
	p := detParams()
	return goldenFile{
		Fig3:  Fig3(p),
		Fig8:  Fig8(p),
		Fig9:  Fig9(p),
		Fig11: Fig11(p, goldenFig11Loads),
	}
}

// readGolden returns the committed fixture at path decoded into want,
// or, under -update-golden, rewrites it from got and returns false.
func readGolden(t *testing.T, path string, got, want any) bool {
	t.Helper()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("golden fixtures rewritten: %s", path)
		return false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return true
}

// checkGolden compares one fixture part in JSON space, so the on-disk
// fixture is the single source of truth (no surprises from unexported
// state or float re-encoding).
func checkGolden(t *testing.T, name string, wantPart, gotPart any) {
	t.Helper()
	w, g := mustJSON(t, wantPart), mustJSON(t, gotPart)
	if string(w) != string(g) {
		t.Errorf("%s diverged from golden fixture\nwant: %s\ngot:  %s", name, w, g)
	}
}

// TestGoldenDatapathEquivalence asserts the current datapath reproduces
// the committed pre-refactor figure fixtures bit-identically, as full
// JSON.
func TestGoldenDatapathEquivalence(t *testing.T) {
	got := captureGolden(t)
	var want goldenFile
	if !readGolden(t, goldenPath, got, &want) {
		return
	}
	checkGolden(t, "Fig3", want.Fig3, got.Fig3)
	checkGolden(t, "Fig8", want.Fig8, got.Fig8)
	checkGolden(t, "Fig9", want.Fig9, got.Fig9)
	checkGolden(t, "Fig11", want.Fig11, got.Fig11)
}

const driversGoldenPath = "testdata/drivers_golden.json"

// driversGolden pins the single-host drivers the datapath fixture does
// not reach: Fig. 10's host-network path, the NAPI batch-weight
// ablation, the §VII-1 driver-priority extension and RSS scaling.
type driversGolden struct {
	Fig10         Fig9Result
	AblationBatch AblationBatchResult
	ExtDriver     ExtDriverResult
	Scaling       ScalingResult
}

// TestGoldenDrivers asserts those drivers reproduce their committed
// fixture bit-identically at determinism-test scale.
func TestGoldenDrivers(t *testing.T) {
	p := detParams()
	got := driversGolden{
		Fig10:         Fig10(p),
		AblationBatch: AblationBatch(p, []int{16, 64}),
		ExtDriver:     ExtDriver(p),
		Scaling:       Scaling(p, []int{1, 2}),
	}
	var want driversGolden
	if !readGolden(t, driversGoldenPath, got, &want) {
		return
	}
	checkGolden(t, "Fig10", want.Fig10, got.Fig10)
	checkGolden(t, "AblationBatch", want.AblationBatch, got.AblationBatch)
	checkGolden(t, "ExtDriver", want.ExtDriver, got.ExtDriver)
	checkGolden(t, "Scaling", want.Scaling, got.Scaling)
}

// TestGoldenCoversAllModes guards the fixture's reach: the figure results
// embedded in the golden file must exercise every priority mode, so a
// datapath regression in any of them trips the equivalence test.
func TestGoldenCoversAllModes(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skipf("golden fixtures not captured yet: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	seen := map[prio.Mode]bool{}
	for _, row := range want.Fig9.Rows {
		seen[row.Mode] = true
	}
	for _, m := range Modes {
		if !seen[m] {
			t.Errorf("golden Fig9 fixture missing mode %v", m)
		}
	}
}
