package scenario

import (
	"path/filepath"
	"reflect"
	"testing"

	"prism/internal/experiments"
	"prism/internal/sim"
)

const corpusDir = "../../scenarios"

func loadCorpus(t *testing.T, name string) *Plan {
	t.Helper()
	s, err := Load(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	plan, err := Compile(s)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return plan
}

// goldenParams is the exact parameter block the committed experiment
// fixtures were captured with (detParams in internal/experiments); the
// figure scenario files must compile to it bit for bit.
func goldenParams() experiments.Params {
	p := experiments.Default()
	p.Warmup = 5 * sim.Millisecond
	p.Duration = 50 * sim.Millisecond
	return p
}

// TestFigureScenariosCompileToGoldenParams proves the refactor's central
// claim at the input layer: each committed paper-figure scenario lowers
// onto exactly the harness parameters the golden fixtures pin.
func TestFigureScenariosCompileToGoldenParams(t *testing.T) {
	want := goldenParams()
	for _, name := range []string{"fig3.yaml", "fig8.yaml", "fig9.yaml", "fig11.yaml",
		"stages.yaml", "policies.yaml", "chaos.yaml", "cluster.yaml"} {
		plan := loadCorpus(t, name)
		if !reflect.DeepEqual(plan.Params, want) {
			t.Errorf("%s: compiled params diverge from detParams\ngot:  %+v\nwant: %+v",
				name, plan.Params, want)
		}
	}
}

func TestFigureScenarioGrids(t *testing.T) {
	if got := loadCorpus(t, "fig11.yaml").Fig11Loads; !reflect.DeepEqual(got, []float64{0, 100_000, 300_000}) {
		t.Errorf("fig11 loads = %v", got)
	}
	if got := loadCorpus(t, "chaos.yaml").ChaosRates; !reflect.DeepEqual(got, []float64{0, 0.2, 0.4}) {
		t.Errorf("chaos rates = %v", got)
	}
	cc := loadCorpus(t, "cluster.yaml").ClusterCfg
	want := experiments.DefaultClusterConfig()
	if !reflect.DeepEqual(cc, want) {
		t.Errorf("cluster config = %+v, want %+v", cc, want)
	}
}

func TestCustomCompile(t *testing.T) {
	t.Run("incast", func(t *testing.T) {
		plan := loadCorpus(t, "incast.yaml")
		if plan.Spec == nil {
			t.Fatal("incast should compile to a testbed spec")
		}
		if !plan.Spec.Shed {
			t.Errorf("spec = %+v", plan.Spec)
		}
		fanin := plan.Scenario.Workload[1]
		if fanin.Senders != 8 {
			t.Errorf("fan-in senders = %d", fanin.Senders)
		}
	})
	t.Run("wifi-ap", func(t *testing.T) {
		plan := loadCorpus(t, "wifi-ap.yaml")
		c := plan.Spec.Costs
		if c == nil {
			t.Fatal("wifi-ap must override the link cost model")
		}
		if c.WireLatency != 200*sim.Microsecond || c.LinkBandwidthBps != 54_000_000 {
			t.Errorf("link costs = latency %v bw %d", c.WireLatency, c.LinkBandwidthBps)
		}
	})
	t.Run("fault-window", func(t *testing.T) {
		plan := loadCorpus(t, "fault-window.yaml")
		f := plan.Spec.Fault
		if f == nil {
			t.Fatal("fault-window must attach a fault plane")
		}
		if len(f.Phases) != 2 {
			t.Fatalf("phases = %+v", f.Phases)
		}
		if f.Seed != plan.Params.Seed {
			t.Errorf("fault seed %d should default to the scenario seed %d", f.Seed, plan.Params.Seed)
		}
		if f.Phases[0].From != 15*sim.Millisecond || f.Phases[0].Until != 25*sim.Millisecond {
			t.Errorf("phase 0 window = %+v", f.Phases[0])
		}
		if !plan.Spec.Shed {
			t.Error("shed should be on")
		}
	})
	t.Run("diurnal", func(t *testing.T) {
		plan := loadCorpus(t, "diurnal.yaml")
		var phased *Group
		for i := range plan.Scenario.Workload {
			if len(plan.Scenario.Workload[i].Phases) > 0 {
				phased = &plan.Scenario.Workload[i]
			}
		}
		if phased == nil || len(phased.Phases) != 2 {
			t.Fatalf("diurnal needs a phased group: %+v", plan.Scenario.Workload)
		}
	})
}
