package scenario

import (
	"fmt"
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
	// Shorthands for the one-rejection-per-branch entries at the end.
	const (
		exp  = "scenario: v1\nexperiment:\n"
		mono = "scenario: v1\ntopology:\n  split: monolithic\n"
		clus = "scenario: v1\ntopology:\n  split: cluster\n  hosts: 4\n"
		echo = "workload:\n  - name: a\n    type: echo\n    rate: 10\n"
		grp  = "workload:\n  - name: a\n"
	)
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
		{
			"root not a mapping",
			"- a\n- b\n",
			[]string{"scenario: expected a mapping"},
		},
		{
			"section not a mapping",
			"scenario: v1\ntopology: 5\n",
			[]string{"scenario.topology: expected a mapping, got a scalar"},
		},
		{
			"list item not a mapping",
			mono + "workload:\n  - a\n",
			[]string{"scenario.workload[0]: expected a mapping"},
		},
		{
			"scalar field given a list",
			exp + "  kind: fig3\nname: [a]\n",
			[]string{"scenario.name: expected a scalar, got a list"},
		},
		{
			"group name missing",
			mono + "workload:\n  - type: echo\n    rate: 10\n",
			[]string{"scenario.workload[0].name: required field missing"},
		},
		{
			"bad boolean in topology",
			mono + "  shed: yes\n" + echo,
			[]string{"scenario.topology.shed: expected true or false"},
		},
		{
			"bad number",
			mono + grp + "    type: echo\n    rate: fast\n",
			[]string{"scenario.workload[0].rate: expected a number"},
		},
		{
			"list field given a scalar",
			exp + "  kind: fig11\n  loads: 5\n",
			[]string{"scenario.experiment.loads: expected a list"},
		},
		{
			"number list with a list element",
			`{"scenario": "v1", "experiment": {"kind": "fig11", "loads": [[1]]}}`,
			[]string{"scenario.experiment.loads[0]: expected a number, got a list"},
		},
		{
			"number list with a bad element",
			exp + "  kind: fig11\n  loads: [1, x]\n",
			[]string{"scenario.experiment.loads[1]: expected a number"},
		},
		{
			"string list with a mapping element",
			`{"scenario": "v1", "experiment": {"kind": "cluster", "placements": [{"a": "b"}]}}`,
			[]string{"scenario.experiment.placements[0]: expected a scalar, got a mapping"},
		},
		{
			"negative seed",
			"scenario: v1\nseed: -1\n" + "experiment:\n  kind: fig3\n",
			[]string{"seed: must not be negative"},
		},
		{
			"zero duration",
			"scenario: v1\nduration: 0s\n" + "experiment:\n  kind: fig3\n",
			[]string{"duration: must be positive"},
		},
		{
			"zero workers",
			"scenario: v1\nworkers: 0\n" + "experiment:\n  kind: fig3\n",
			[]string{"workers: must be >= 1"},
		},
		{
			"unknown traffic field",
			exp + "  kind: fig3\ntraffic:\n  rate: 5\n",
			[]string{`scenario.traffic: unknown field "rate"`},
		},
		{
			"bad traffic integer",
			exp + "  kind: fig3\ntraffic:\n  bg_burst: many\n",
			[]string{"scenario.traffic.bg_burst: expected an integer"},
		},
		{
			"experiment kind missing",
			exp + "  loads: [1]\n",
			[]string{"scenario.experiment.kind"},
		},
		{
			"unknown experiment field",
			exp + "  kind: fig3\n  size: 2\n",
			[]string{`scenario.experiment: unknown field "size"`},
		},
		{
			"rates on non-chaos",
			exp + "  kind: fig3\n  rates: [0.1]\n",
			[]string{"scenario.experiment.rates: only valid for the chaos"},
		},
		{
			"policy on non-policies",
			exp + "  kind: fig3\n  policy: vanilla\n",
			[]string{"scenario.experiment.policy: only valid for the policies"},
		},
		{
			"hosts on non-cluster",
			exp + "  kind: fig3\n  hosts: 4\n",
			[]string{"scenario.experiment.hosts: only valid for the cluster"},
		},
		{
			"unknown experiment policy",
			exp + "  kind: policies\n  policy: warp\n",
			[]string{`scenario.experiment.policy: unknown poll policy "warp"`},
		},
		{
			"unknown placement",
			clus + "  placement: random\n" + echo,
			[]string{`scenario.topology.placement: unknown value "random"`},
		},
		{
			"bad admission integer",
			clus + "  admission:\n    burst: x\n" + echo,
			[]string{"scenario.topology.admission.burst: expected an integer"},
		},
		{
			"rx_queues on cluster",
			clus + "  rx_queues: 2\n" + echo,
			[]string{"rx_queues/batch_size: not valid with split: cluster"},
		},
		{
			"unknown group type",
			mono + grp + "    type: ping\n    rate: 10\n",
			[]string{`scenario.workload[0].type: unknown value "ping"`},
		},
		{
			"group type missing",
			mono + grp + "    rate: 10\n",
			[]string{"scenario.workload[0].type"},
		},
		{
			"unknown priority",
			mono + grp + "    type: echo\n    priority: mid\n    rate: 10\n",
			[]string{`scenario.workload[0].priority: unknown value "mid"`},
		},
		{
			"zero rate",
			mono + grp + "    type: echo\n    rate: 0\n",
			[]string{"rate: must be positive"},
		},
		{
			"port out of range",
			mono + echo + "    port: 70000\n",
			[]string{"port: 70000 outside [0, 65535]"},
		},
		{
			"zero senders",
			mono + grp + "    type: flood\n    rate: 10\n    senders: 0\n",
			[]string{"senders: must be >= 1"},
		},
		{
			"zero count",
			mono + echo + "    count: 0\n",
			[]string{"count: must be >= 1"},
		},
		{
			"zero phase multiplier",
			mono + echo + "    phases:\n      - at: 1ms\n        rate_x: 0\n",
			[]string{"scenario.workload[0].phases[0]: rate_x: must be positive"},
		},
		{
			"unknown phase field",
			mono + echo + "    phases:\n      - at: 1ms\n        rate_x: 2\n        ramp: 1\n",
			[]string{`scenario.workload[0].phases[0]: unknown field "ramp"`},
		},
		{
			"phases out of order",
			mono + echo + "    phases:\n      - at: 2ms\n        rate_x: 2\n      - at: 1ms\n        rate_x: 3\n",
			[]string{"scenario.workload[0].phases[1]: at: phases must be in strictly increasing time order"},
		},
		{
			"msg_size on echo",
			mono + echo + "    msg_size: 1000\n",
			[]string{"msg_size: only valid for type: tcp"},
		},
		{
			"negative bandwidth",
			mono + "link:\n  bandwidth_bps: -1\n" + echo,
			[]string{"scenario.link: bandwidth_bps: must not be negative"},
		},
		{
			"empty link",
			mono + "link:\n  wire_latency: 0s\n" + echo,
			[]string{"at least one of wire_latency / bandwidth_bps"},
		},
		{
			"negative fault seed",
			mono + echo + "faults:\n  seed: -3\n  rate: 0.1\n",
			[]string{"scenario.faults: seed: must not be negative"},
		},
		{
			"fault rate out of range",
			mono + echo + "faults:\n  rate: 2\n",
			[]string{"scenario.faults: rate: 2 outside [0, 1]"},
		},
		{
			"unknown fault phase kind",
			mono + echo + "faults:\n  phases:\n    - from: 1ms\n      kind: meteor\n",
			[]string{`scenario.faults.phases[0].kind: unknown value "meteor"`},
		},
		{
			"scripted entry with a rate",
			clus + echo + "faults:\n  phases:\n    - from: 1ms\n      kind: host_crash\n      rate: 0.1\n",
			[]string{"kind: scripted host_crash entries carry host/tor"},
		},
		{
			"scripted entry at time zero",
			clus + echo + "faults:\n  phases:\n    - kind: host_crash\n",
			[]string{"from: a scripted host_crash needs a positive event time"},
		},
		{
			"rate window rate out of range",
			mono + echo + "faults:\n  phases:\n    - from: 1ms\n      rate: 0\n",
			[]string{"scenario.faults.phases[0]: rate: 0 outside (0, 1]"},
		},
		{
			"victim on a rate window",
			mono + echo + "faults:\n  phases:\n    - from: 1ms\n      rate: 0.1\n      host: 2\n",
			[]string{"host/tor: only valid on scripted entries"},
		},
		{
			"unknown fault phase field",
			mono + echo + "faults:\n  phases:\n    - from: 1ms\n      rate: 0.1\n      burst: 2\n",
			[]string{`scenario.faults.phases[0]: unknown field "burst"`},
		},
		{
			"unknown faults field",
			mono + echo + "faults:\n  rate: 0.1\n  window: 2\n",
			[]string{`scenario.faults: unknown field "window"`},
		},
		{
			"faults without rate or phases",
			mono + echo + "faults:\n  shed: true\n",
			[]string{"scenario.faults: either rate or phases must be set"},
		},
		{
			"bad slo value",
			exp + "  kind: fig3\nslo:\n  - \"p99 <= fast\"\n",
			[]string{"scenario.slo[0]: expected a number"},
		},
		{
			"faults with a non-chaos experiment",
			exp + "  kind: fig3\nfaults:\n  rate: 0.1\n",
			[]string{"scenario.faults: only the chaos experiment injects faults"},
		},
		{
			"faults with the chaos experiment",
			exp + "  kind: chaos\nfaults:\n  rate: 0.1\n",
			[]string{"scenario.faults: the chaos experiment derives its planes from rates"},
		},
		{
			"link with an experiment",
			exp + "  kind: fig3\nlink:\n  wire_latency: 5us\n",
			[]string{"scenario.link: link overrides need a custom topology"},
		},
		{
			"conservation with fig3",
			exp + "  kind: fig3\nconservation: required\n",
			[]string{"scenario.conservation: only chaos, cluster and custom runs"},
		},
		{
			"topology without workload",
			mono,
			[]string{"scenario.workload: a custom topology needs at least one traffic group"},
		},
		{
			"topology with an empty workload",
			mono + "workload: []\n",
			[]string{"scenario.workload: a custom topology needs at least one traffic group"},
		},
		{
			"tcp on cluster",
			clus + grp + "    type: tcp\n    rate: 10\n",
			[]string{"scenario.workload[0].type: tcp streams are not wired on cluster topologies"},
		},
		{
			"senders on cluster",
			clus + grp + "    type: flood\n    rate: 10\n    senders: 2\n",
			[]string{"scenario.workload[0].senders: incast fan-in needs a single-host topology"},
		},
		{
			"burst on cluster",
			clus + grp + "    type: flood\n    rate: 10\n    burst: 8\n",
			[]string{"scenario.workload[0]: burst/poisson/jitter_frac/payload_len/port are not configurable"},
		},
		{
			"stop_at on cluster",
			clus + echo + "    stop_at: 5ms\n",
			[]string{"scenario.workload[0]: phases/stop_at are not supported on cluster topologies"},
		},
		{
			"count on monolithic",
			mono + echo + "    count: 2\n",
			[]string{"scenario.workload[0].count: container replication needs split: cluster"},
		},
		{
			"ingress on monolithic",
			mono + echo + "    ingress: 0\n",
			[]string{"scenario.workload[0].ingress: only valid with split: cluster"},
		},
		{
			"stop_at past horizon",
			"scenario: v1\nwarmup: 1ms\nduration: 10ms\ntopology:\n  split: monolithic\n" + echo + "    stop_at: 50ms\n",
			[]string{"scenario.workload[0].stop_at: past the run horizon"},
		},
		{
			"cluster without hosts",
			"scenario: v1\ntopology:\n  split: cluster\n" + echo,
			[]string{"scenario.topology.hosts: a cluster needs at least 1 host"},
		},
		{
			"cluster fault class on monolithic",
			mono + echo + "faults:\n  rate: 0.1\n  classes: [host_crash]\n",
			[]string{"scenario.faults.classes: host_crash / tor_link need split: cluster"},
		},
		{
			"fault phase past horizon",
			"scenario: v1\nwarmup: 1ms\nduration: 10ms\ntopology:\n  split: monolithic\n" + echo + "faults:\n  phases:\n    - from: 50ms\n      rate: 0.1\n",
			[]string{"scenario.faults.phases[0].from: past the run horizon"},
		},
		{
			"cluster fault class in a monolithic phase",
			mono + echo + "faults:\n  phases:\n    - from: 1ms\n      rate: 0.1\n      classes: [tor_link]\n",
			[]string{"scenario.faults.phases[0].classes: host_crash / tor_link need split: cluster"},
		},
		{
			"scripted crash on monolithic",
			mono + echo + "faults:\n  phases:\n    - from: 1ms\n      kind: host_crash\n",
			[]string{"scenario.faults.phases[0].kind: scripted host_crash needs split: cluster"},
		},
		{
			"crash victim outside the cluster",
			clus + echo + "faults:\n  phases:\n    - from: 1ms\n      kind: host_crash\n      host: 9\n",
			[]string{"scenario.faults.phases[0].host: host 9 outside the 4-host cluster"},
		},
		{
			"tor_link_down on one rack",
			clus + echo + "faults:\n  phases:\n    - from: 1ms\n      kind: tor_link_down\n",
			[]string{"tor_link_down needs a multi-rack fabric"},
		},
		{
			"tor outside the fabric",
			"scenario: v1\ntopology:\n  split: cluster\n  hosts: 16\n  racks: 2\n" + echo + "faults:\n  phases:\n    - from: 1ms\n      kind: tor_link_down\n      tor: 5\n",
			[]string{"scenario.faults.phases[0].tor: rack 5 outside the 2-rack fabric"},
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

const rejectionsGolden = "testdata/rejections.golden"

// TestScenarioRejectionsGolden pins the decoder's error contract: every
// hostile input's full rejection message, one `name<TAB>error` line each,
// must match the committed file byte for byte. Regenerate only when a
// message change is intended:
//
//	go test ./internal/scenario -run TestScenarioRejectionsGolden -update-golden
func TestScenarioRejectionsGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range hostileInputs() {
		msg := "<accepted>"
		if _, err := Parse([]byte(tc.doc)); err != nil {
			msg = err.Error()
		}
		fmt.Fprintf(&b, "%s\t%s\n", tc.name, msg)
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(rejectionsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rejectionsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(rejectionsGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			t.Errorf("rejection %d diverged\nwant: %s\ngot:  %s", i, want[min(i, len(want)-1)], line)
		}
	}
	if len(want) != strings.Count(got, "\n")+1 {
		t.Errorf("golden has %d lines, run produced %d", len(want), strings.Count(got, "\n")+1)
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
