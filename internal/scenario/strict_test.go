package scenario

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prism/internal/sim"
)

// mustParse decodes a document that is expected to be valid.
func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

const minimalExperiment = "scenario: v1\nexperiment:\n  kind: fig3\n"

func TestDefaults(t *testing.T) {
	s := mustParse(t, minimalExperiment)
	if s.Seed != 42 || s.Warmup != 100*sim.Millisecond || s.Duration != sim.Second || s.Workers != 1 {
		t.Errorf("defaults wrong: seed=%d warmup=%v duration=%v workers=%d",
			s.Seed, s.Warmup, s.Duration, s.Workers)
	}
	if s.Experiment == nil || s.Experiment.Kind != "fig3" {
		t.Errorf("experiment not decoded: %+v", s.Experiment)
	}
}

func TestGroupDefaults(t *testing.T) {
	s := mustParse(t, `scenario: v1
topology:
  split: monolithic
workload:
  - name: hi
    type: echo
    priority: hi
    rate: 1000
  - name: bg
    type: flood
    rate: 50000
`)
	hi, bg := s.Workload[0], s.Workload[1]
	if hi.Senders != 1 || hi.Count != 1 || hi.Ingress != -1 {
		t.Errorf("echo defaults wrong: %+v", hi)
	}
	if bg.Priority != "lo" || bg.poissonSet || bg.jitterSet {
		t.Errorf("flood defaults wrong: %+v", bg)
	}
	if s.Topology.Mode != "prism-sync" {
		t.Errorf("mode default wrong: %q", s.Topology.Mode)
	}
}

// hostileInput is a malformed document and the fragments its rejection
// must carry.
type hostileInput struct {
	name, doc string
	want      []string // all must appear in the error
}

// hostileInputs are the documents TestHostileInputs rejects; they also
// seed FuzzScenarioDecode.
func hostileInputs() []hostileInput {
	return []hostileInput{
		{
			"missing version",
			"name: x\nexperiment:\n  kind: fig3\n",
			[]string{"scenario.scenario", "schema version missing"},
		},
		{
			"wrong version",
			"scenario: v2\nexperiment:\n  kind: fig3\n",
			[]string{"scenario.scenario", `unsupported version "v2"`},
		},
		{
			"unknown root field",
			minimalExperiment + "bogus: 1\n",
			[]string{"scenario:", `unknown field "bogus"`, "valid:"},
		},
		{
			"unknown topology field",
			"scenario: v1\ntopology:\n  split: monolithic\n  rx_queue: 2\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.topology", `unknown field "rx_queue"`, "rx_queues"},
		},
		{
			"unknown group field",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n    ratex: 2\n",
			[]string{"scenario.workload[0]", `unknown field "ratex"`},
		},
		{
			"unknown enum split",
			"scenario: v1\ntopology:\n  split: sharded\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.topology.split", `unknown value "sharded"`, "(valid: monolithic, cluster)"},
		},
		{
			"unknown enum mode",
			"scenario: v1\ntopology:\n  split: monolithic\n  mode: turbo\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.topology.mode", `unknown value "turbo"`, "vanilla"},
		},
		{
			"unknown experiment kind",
			"scenario: v1\nexperiment:\n  kind: fig99\n",
			[]string{"scenario.experiment.kind", `unknown value "fig99"`, "fig11"},
		},
		{
			"unknown poll policy",
			"scenario: v1\ntopology:\n  split: monolithic\n  policy: warp\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.topology.policy", `unknown poll policy "warp"`},
		},
		{
			"bad duration",
			"scenario: v1\nwarmup: fast\nexperiment:\n  kind: fig3\n",
			[]string{"scenario.warmup", "duration like 5ms"},
		},
		{
			"negative duration",
			"scenario: v1\nwarmup: -5ms\nexperiment:\n  kind: fig3\n",
			[]string{"scenario.warmup", "must not be negative"},
		},
		{
			"bad integer",
			"scenario: v1\nworkers: two\nexperiment:\n  kind: fig3\n",
			[]string{"scenario.workers", "expected an integer"},
		},
		{
			"bad boolean",
			"scenario: v1\nconservation: yes\nexperiment:\n  kind: chaos\n  rates: [0.2]\n",
			[]string{"scenario.conservation", `unknown value "yes"`},
		},
		{
			"experiment and topology",
			"scenario: v1\nexperiment:\n  kind: fig3\ntopology:\n  split: monolithic\n",
			[]string{"experiment and topology are mutually exclusive"},
		},
		{
			"neither experiment nor topology",
			"scenario: v1\nname: empty\n",
			[]string{"exactly one of experiment / topology"},
		},
		{
			"workload with experiment",
			minimalExperiment + "workload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.workload", "not valid with an experiment"},
		},
		{
			"loads on non-fig11",
			"scenario: v1\nexperiment:\n  kind: fig3\n  loads: [1000]\n",
			[]string{"scenario.experiment.loads", "only valid for the fig11"},
		},
		{
			"chaos rate out of range",
			"scenario: v1\nexperiment:\n  kind: chaos\n  rates: [0.2, 1.5]\n",
			[]string{"scenario.experiment.rates[1]", "outside [0, 1]"},
		},
		{
			"bad slo operator",
			minimalExperiment + "slo:\n  - \"p99 ~= 5\"\n",
			[]string{"scenario.slo[0]", `unknown operator "~="`, "<="},
		},
		{
			"malformed slo",
			minimalExperiment + "slo:\n  - p99_too_low\n",
			[]string{"scenario.slo[0]", "want `metric op value`"},
		},
		{
			"unknown fault class",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\nfaults:\n  rate: 0.2\n  classes: [gamma]\n",
			[]string{"scenario.faults.classes[0]", `unknown fault class "gamma"`, "softirq"},
		},
		{
			"fault rate and phases",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\nfaults:\n  rate: 0.2\n  phases:\n    - from: 1ms\n      rate: 0.1\n",
			[]string{"scenario.faults", "mutually exclusive"},
		},
		{
			"fault phase out of order",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\nfaults:\n  phases:\n    - from: 10ms\n      until: 5ms\n      rate: 0.1\n",
			[]string{"scenario.faults.phases[0]", "must be after from"},
		},
		{
			"faults on wire-split",
			"scenario: v1\ntopology:\n  split: wire-split\nworkload:\n  - name: a\n    type: echo\n    rate: 10\nfaults:\n  rate: 0.2\n",
			[]string{`scenario.topology.split: unknown value "wire-split"`, "(valid: monolithic, cluster)"},
		},
		{
			"removed split rss-split",
			"scenario: v1\ntopology:\n  split: rss-split\n  rx_queues: 2\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{`scenario.topology.split: unknown value "rss-split"`, "(valid: monolithic, cluster)"},
		},
		{
			"duplicate group name",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n  - name: a\n    type: flood\n    rate: 10\n",
			[]string{"scenario.workload[1]", `duplicate group name "a"`},
		},
		{
			"bad group name",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: Hi-Flow\n    type: echo\n    rate: 10\n",
			[]string{"scenario.workload[0]", "must match"},
		},
		{
			"hi tcp stream",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: tcp\n    priority: hi\n    rate: 10\n",
			[]string{"scenario.workload[0]", "only echo/flood can be hi"},
		},
		{
			"senders on echo",
			"scenario: v1\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n    senders: 4\n",
			[]string{"scenario.workload[0]", "only valid for type: flood"},
		},
		{
			"cluster fields on monolithic",
			"scenario: v1\ntopology:\n  split: monolithic\n  hosts: 4\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.topology", "only valid with split: cluster"},
		},
		{
			"ingress outside cluster size",
			"scenario: v1\ntopology:\n  split: cluster\n  hosts: 4\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n    ingress: 7\n",
			[]string{"scenario.workload[0].ingress", "outside the 4-host cluster"},
		},
		{
			"phase past horizon",
			"scenario: v1\nwarmup: 1ms\nduration: 10ms\ntopology:\n  split: monolithic\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n    phases:\n      - at: 50ms\n        rate_x: 2\n",
			[]string{"scenario.workload[0].phases[0].at", "past the run horizon"},
		},
		{
			"unknown admission field",
			"scenario: v1\ntopology:\n  split: cluster\n  hosts: 4\n  admission:\n    rate: 1000\n    reserve: 0.5\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.topology.admission", `unknown field "reserve"`, "hi_reserve"},
		},
		{
			"unknown link field",
			"scenario: v1\ntopology:\n  split: monolithic\nlink:\n  latency: 5ms\nworkload:\n  - name: a\n    type: echo\n    rate: 10\n",
			[]string{"scenario.link", `unknown field "latency"`, "wire_latency"},
		},
	}
}

// TestHostileInputs feeds the decoder malformed documents and asserts
// every rejection is path-qualified: the error names the offending field
// by its scenario.* path and, for closed sets, lists the valid values.
func TestHostileInputs(t *testing.T) {
	for _, tc := range hostileInputs() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("hostile input accepted:\n%s", tc.doc)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

func TestSLOEvalUnknownMetric(t *testing.T) {
	s, err := parseSLO("scenario.slo[0]", "nope_p99_us <= 10")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = s.Eval(map[string]float64{"hi_p99_us": 3, "util": 0.5})
	if err == nil || !strings.Contains(err.Error(), `unknown metric "nope_p99_us"`) ||
		!strings.Contains(err.Error(), "hi_p99_us, util") {
		t.Errorf("want unknown-metric error listing produced metrics, got %v", err)
	}
}

func TestSLOEvalOperators(t *testing.T) {
	m := map[string]float64{"x": 5}
	cases := []struct {
		expr string
		pass bool
	}{
		{"x <= 5", true}, {"x < 5", false}, {"x >= 5", true},
		{"x > 5", false}, {"x == 5", true}, {"x != 5", false},
	}
	for _, tc := range cases {
		s, err := parseSLO("t", tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		r, err := s.Eval(m)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if r.Pass != tc.pass {
			t.Errorf("%s: pass=%v, want %v", tc.expr, r.Pass, tc.pass)
		}
		if r.Measured != 5 {
			t.Errorf("%s: measured=%v", tc.expr, r.Measured)
		}
	}
}

// FuzzScenarioDecode is the hostile-input guard for the whole front end:
// on any bytes, Parse and (on success) Compile must return, never panic,
// and every rejection must say where it is: a scenario.* path, a
// line-numbered YAML error, a json: error or the empty-document error.
// Seeded from the committed corpus and the hostile inputs above.
func FuzzScenarioDecode(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario corpus to seed from (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range hostileInputs() {
		f.Add([]byte(tc.doc))
	}
	qualified := regexp.MustCompile(`^(scenario|line \d+:|json:)`)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err == nil {
			_, err = Compile(s)
		}
		if err != nil && err.Error() != "empty document" && !qualified.MatchString(err.Error()) {
			t.Errorf("error is not path-qualified: %v", err)
		}
	})
}
