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
	if got := loadCorpus(t, "fig11.yaml").Args.Loads; !reflect.DeepEqual(got, []float64{0, 100_000, 300_000}) {
		t.Errorf("fig11 loads = %v", got)
	}
	if got := loadCorpus(t, "chaos.yaml").Args.Rates; !reflect.DeepEqual(got, []float64{0, 0.2, 0.4}) {
		t.Errorf("chaos rates = %v", got)
	}
	a := loadCorpus(t, "cluster.yaml").Args
	want := experiments.Args{Hosts: 16, Containers: 1000, Placements: []string{"spread", "pack", "priority"}}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("cluster args = %+v, want %+v", a, want)
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

// TestWorkloadFlowsKeepExplicitShaping guards the lowering onto
// testbed flows: an explicit `poisson: true` or `jitter_frac: 0` must
// reach the generator although it equals a default or is zero, unset
// shaping must stay unset, and client indices must run across groups
// and senders.
func TestWorkloadFlowsKeepExplicitShaping(t *testing.T) {
	s := mustParse(t, `scenario: v1
topology:
  split: monolithic
workload:
  - name: burst
    type: flood
    rate: 1000
    senders: 3
    poisson: true
    jitter_frac: 0
  - name: plain
    type: flood
    rate: 1000
  - name: hi
    type: echo
    priority: hi
    rate: 100
    port: 11111
`)
	flows := workloadFlows(s.Workload)
	if f := flows[0]; f.Poisson == nil || !*f.Poisson || f.JitterFrac == nil || *f.JitterFrac != 0 {
		t.Errorf("explicit shaping lost: poisson=%v jitter=%v", f.Poisson, f.JitterFrac)
	}
	if f := flows[1]; f.Poisson != nil || f.JitterFrac != nil {
		t.Errorf("unset shaping became explicit: poisson=%v jitter=%v", f.Poisson, f.JitterFrac)
	}
	if flows[1].Port != 15001 || flows[2].Port != 11111 {
		t.Errorf("ports = %d, %d; want the 15000+index default and the explicit 11111", flows[1].Port, flows[2].Port)
	}
	if flows[1].Client != 3 || flows[2].Client != 4 || !flows[2].Hi {
		t.Errorf("clients = %d, %d (hi=%v); want 3 and 4 after a 3-sender group", flows[1].Client, flows[2].Client, flows[2].Hi)
	}
}

// TestCompileRejectsNegativeClusterScale: the decoder leaves an
// experiment's grid knobs to Args.Validate, so a negative cluster scale
// must fail Compile with the field's path instead of running the
// default grid.
func TestCompileRejectsNegativeClusterScale(t *testing.T) {
	for field, want := range map[string]string{
		"hosts":      "scenario.experiment.hosts: must not be negative, got -3",
		"containers": "scenario.experiment.containers: must not be negative, got -3",
	} {
		s := mustParse(t, "scenario: v1\nexperiment:\n  kind: cluster\n  "+field+": -3\n")
		if _, err := Compile(s); err == nil || err.Error() != want {
			t.Errorf("%s -3: Compile error %v, want %q", field, err, want)
		}
	}
}

// TestCompileRejectsInfeasibleClusterScale: a cluster experiment the
// cluster cannot hold fails Compile with cluster.CheckScale's reason
// instead of panicking when the run builds it.
func TestCompileRejectsInfeasibleClusterScale(t *testing.T) {
	for knobs, want := range map[string]string{
		"hosts: 1\n  containers: 500":     "scenario.experiment.containers: cluster: 500 containers exceed cluster capacity 200 (1 hosts × 200)",
		"hosts: 2":                        "scenario.experiment.containers: cluster: 1000 containers exceed cluster capacity 400 (2 hosts × 200)",
		"hosts: 200\n  containers: 30000": "scenario.experiment.containers: cluster: 30000 containers exceed the port space (at most 20000)",
	} {
		s := mustParse(t, "scenario: v1\nexperiment:\n  kind: cluster\n  "+knobs+"\n")
		if _, err := Compile(s); err == nil || err.Error() != want {
			t.Errorf("%q: Compile error %v, want %q", knobs, err, want)
		}
	}
}

// TestCompileRejectsInfeasibleCustomCluster: a custom cluster topology
// whose workload its hosts cannot hold fails Compile with the same check,
// under the topology's field path, instead of failing when the run builds
// it. An unset host_cap is the cluster's default, and one beyond the
// overlay's address space is the cap the cluster really applies.
func TestCompileRejectsInfeasibleCustomCluster(t *testing.T) {
	for topo, want := range map[string]string{
		"hosts: 1\n  host_cap: 4":   "scenario.topology: cluster: 12 containers exceed cluster capacity 4 (1 hosts × 4)",
		"hosts: 1\n  host_cap: 12":  "",
		"hosts: 1\n  host_cap: 300": "",
	} {
		s := mustParse(t, "scenario: v1\ntopology:\n  split: cluster\n  "+topo+
			"\nworkload:\n  - name: e\n    type: echo\n    rate: 10\n    count: 12\n")
		_, err := Compile(s)
		if want == "" && err != nil || want != "" && (err == nil || err.Error() != want) {
			t.Errorf("%q: Compile error %v, want %q", topo, err, want)
		}
	}
	for topo, want := range map[string]string{
		"hosts: 1":                  "scenario.topology: cluster: 300 containers exceed cluster capacity 200 (1 hosts × 200)",
		"hosts: 1\n  host_cap: 300": "scenario.topology: cluster: 300 containers exceed cluster capacity 248 (1 hosts × 248)",
	} {
		s := mustParse(t, "scenario: v1\ntopology:\n  split: cluster\n  "+topo+
			"\nworkload:\n  - name: e\n    type: echo\n    rate: 10\n    count: 300\n")
		if _, err := Compile(s); err == nil || err.Error() != want {
			t.Errorf("%q with 300 containers: Compile error %v, want %q", topo, err, want)
		}
	}
}
