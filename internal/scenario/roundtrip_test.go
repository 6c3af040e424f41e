package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The round-trip suite is the refactor's proof obligation: the committed
// scenario files must reproduce the experiment packages' golden fixtures
// bit-identically — same JSON bytes — at 1, 2 and 4 workers, so the DSL
// is a faithful re-expression of the hard-coded harnesses, not a fork.
var updateGolden = flag.Bool("update-golden", false, "rewrite the scenario golden result datasets")

var roundtripWorkers = []int{1, 2, 4}

func runCorpus(t *testing.T, name string, workers int) *Result {
	t.Helper()
	plan := loadCorpus(t, name)
	plan.Params.Workers = workers
	res, err := plan.Run()
	if err != nil {
		t.Fatalf("run %s (workers=%d): %v", name, workers, err)
	}
	return res
}

// compactJSON re-serializes an indented fixture subtree to the canonical
// single-line form json.Marshal produces for the same value: Go emits
// struct fields in declaration order and identical number tokens, so
// Compact(MarshalIndent(v)) == Marshal(v) byte for byte.
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact fixture: %v", err)
	}
	return buf.Bytes()
}

func loadFixture(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture %s: %v", path, err)
	}
	return raw
}

// TestFigureScenariosReproduceGoldens runs each paper-figure scenario
// file and compares the raw harness result against the corresponding
// subtree of the experiments package's committed datapath fixture.
func TestFigureScenariosReproduceGoldens(t *testing.T) {
	var fixture map[string]json.RawMessage
	if err := json.Unmarshal(loadFixture(t, "../experiments/testdata/datapath_golden.json"), &fixture); err != nil {
		t.Fatalf("decode datapath fixture: %v", err)
	}
	figures := []struct{ file, key string }{
		{"fig3.yaml", "Fig3"},
		{"fig8.yaml", "Fig8"},
		{"fig9.yaml", "Fig9"},
		{"fig11.yaml", "Fig11"},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.key, func(t *testing.T) {
			raw, ok := fixture[fig.key]
			if !ok {
				t.Fatalf("fixture has no %s subtree", fig.key)
			}
			want := compactJSON(t, raw)
			for _, w := range roundtripWorkers {
				res := runCorpus(t, fig.file, w)
				got, err := json.Marshal(res.Experiment)
				if err != nil {
					t.Fatalf("marshal result: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: %s diverges from the golden fixture (len got %d, want %d)",
						w, fig.file, len(got), len(want))
				}
			}
		})
	}
}

// TestChaosScenarioReproducesGolden proves chaos.yaml is the chaos
// harness: same fault planes, same digests, every worker count.
func TestChaosScenarioReproducesGolden(t *testing.T) {
	want := compactJSON(t, loadFixture(t, "../experiments/testdata/chaos_golden.json"))
	for _, w := range roundtripWorkers {
		res := runCorpus(t, "chaos.yaml", w)
		got, err := json.Marshal(res.Experiment)
		if err != nil {
			t.Fatalf("marshal result: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: chaos.yaml diverges from the golden fixture", w)
		}
	}
}

// TestClusterScenarioReproducesGolden proves cluster.yaml is the
// datacenter harness at the acceptance-scale point (16 hosts, 1000
// containers, all placement policies).
func TestClusterScenarioReproducesGolden(t *testing.T) {
	want := compactJSON(t, loadFixture(t, "../experiments/testdata/cluster_golden.json"))
	for _, w := range roundtripWorkers {
		res := runCorpus(t, "cluster.yaml", w)
		got, err := json.Marshal(res.Experiment)
		if err != nil {
			t.Fatalf("marshal result: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: cluster.yaml diverges from the golden fixture", w)
		}
	}
}

// TestScenarioCorpusGoldenDatasets runs every committed scenario file and
// compares the marshaled Result against its golden dataset under
// scenarios/testdata. Regenerate with:
//
//	go test ./internal/scenario -run TestScenarioCorpusGoldenDatasets -update-golden
func TestScenarioCorpusGoldenDatasets(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario corpus at %s (err=%v)", corpusDir, err)
	}
	for _, file := range files {
		base := filepath.Base(file)
		name := strings.TrimSuffix(base, ".yaml")
		t.Run(name, func(t *testing.T) {
			res := runCorpus(t, base, 1)
			for _, s := range res.SLOs {
				if !s.Pass {
					t.Errorf("SLO failed: %s (measured %v)", s.Expr, s.Measured)
				}
			}
			b, err := json.MarshalIndent(res, "", "\t")
			if err != nil {
				t.Fatalf("marshal result: %v", err)
			}
			b = append(b, '\n')
			goldenPath := filepath.Join(corpusDir, "testdata", name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, b, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				t.Logf("golden dataset rewritten: %s", goldenPath)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(b, want) {
				t.Errorf("%s diverges from its golden dataset %s", base, goldenPath)
			}
		})
	}
}

// TestScenarioWorkerDeterminism re-runs custom scenarios at 2 and 4
// workers and requires the full marshaled Result — metrics, digests, SLO
// verdicts — to match the single-worker bytes.
func TestScenarioWorkerDeterminism(t *testing.T) {
	for _, name := range []string{"stages.yaml", "policies.yaml", "control.yaml"} {
		name := name
		t.Run(strings.TrimSuffix(name, ".yaml"), func(t *testing.T) {
			base, err := json.Marshal(runCorpus(t, name, 1))
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			for _, w := range []int{2, 4} {
				got, err := json.Marshal(runCorpus(t, name, w))
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				if !bytes.Equal(got, base) {
					t.Errorf("workers=%d: result diverges from single-worker run", w)
				}
			}
		})
	}
}
