package scenario

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"prism/internal/live"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
)

// TestControlPhasesShowEachOpsEffect reads the committed control golden:
// adding the service's rule at 120 ms must lower its tail (phase 1 p99
// below phase 0's), and the switch to PRISM-sync at 220 ms must not raise
// its median (phase 2 p50 at most phase 1's).
func TestControlPhasesShowEachOpsEffect(t *testing.T) {
	var res Result
	if err := json.Unmarshal(loadFixture(t, filepath.Join(corpusDir, "testdata", "control.golden.json")), &res); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	m := res.Metrics
	if p0, p1 := m["svc_phase0_p99_us"], m["svc_phase1_p99_us"]; !(p1 < p0) {
		t.Errorf("add svc: phase 1 p99 %vµs, want below phase 0's %vµs", p1, p0)
	}
	if p1, p2 := m["svc_phase1_p50_us"], m["svc_phase2_p50_us"]; !(p2 <= p1) || p2 == 0 {
		t.Errorf("mode prism-sync: phase 2 p50 %vµs, want nonzero and at most phase 1's %vµs", p2, p1)
	}
}

// TestScheduleControlWritesTheDatabase runs a script against a live
// testbed and reads the priority database back: a group argument adds and
// deletes the group's own rule, a rule argument its parsed rule, and the
// mode switch lands at its time.
func TestScheduleControlWritesTheDatabase(t *testing.T) {
	s := mustParse(t, `scenario: v1
warmup: 1ms
duration: 9ms
topology:
  split: monolithic
  mode: prism-batch
workload:
  - name: hi
    type: echo
    priority: hi
    rate: 1000
    port: 7000
  - name: bg
    type: flood
    rate: 10000
control:
  - at: 2ms
    op: del
    arg: hi
  - at: 4ms
    op: add
    arg: "*:53@3"
  - at: 6ms
    op: mode
    arg: prism-sync
`)
	plan, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := testbed.New(*plan.Spec)
	srcs, err := tb.Start(plan.Params.Warmup, plan.Params.EchoCost, plan.Params.SinkCost, workloadFlows(s.Workload)...)
	if err != nil {
		t.Fatal(err)
	}
	phases := scheduleControl(tb, s.Control, s.Workload, srcs)
	if len(phases[0]) != 4 || phases[1] != nil {
		t.Fatalf("phase histograms: echo has %d, flood %v; want 4 and none", len(phases[0]), phases[1])
	}
	hiRule := srcs[0].Rule
	if hiRule.Port != 7000 || hiRule.IP == (pkt.IPv4{}) {
		t.Fatalf("hi group's rule = %v, want its container IP and port 7000", hiRule)
	}
	want := []struct {
		at    sim.Time
		rules []prio.Rule
		mode  prio.Mode
	}{
		{sim.Millisecond, []prio.Rule{hiRule}, prio.ModeBatch},
		{3 * sim.Millisecond, []prio.Rule{}, prio.ModeBatch},
		{5 * sim.Millisecond, []prio.Rule{{Port: 53, Level: 3}}, prio.ModeBatch},
		{7 * sim.Millisecond, []prio.Rule{{Port: 53, Level: 3}}, prio.ModeSync},
	}
	for _, w := range want {
		if err := tb.Eng.Run(w.at); err != nil {
			t.Fatal(err)
		}
		got := tb.Host.DB.Rules()
		if len(got) != len(w.rules) || (len(got) > 0 && got[0] != w.rules[0]) {
			t.Errorf("at %v: rules %v, want %v", w.at, got, w.rules)
		}
		if m := tb.Host.DB.Mode(); m != w.mode {
			t.Errorf("at %v: mode %v, want %v", w.at, m, w.mode)
		}
	}
	var n uint64
	for _, h := range phases[0] {
		n += h.Count()
	}
	if n == 0 {
		t.Error("no echo sample reached the phase histograms")
	}
}

// TestLiveSurfaceLeavesScenarioGoldens attaches a live operator surface —
// frame taps, classifier and checkpoints, as prismsim -scenario -listen
// does — to custom monolithic runs and requires their golden bytes.
func TestLiveSurfaceLeavesScenarioGoldens(t *testing.T) {
	for _, name := range []string{"control", "incast"} {
		t.Run(name, func(t *testing.T) {
			plan := loadCorpus(t, name+".yaml")
			plan.Params.Live = live.NewServer()
			plan.Params.Live.Interval = 5 * sim.Millisecond
			res, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			lv := plan.Params.Live
			lv.Finish()
			rec := httptest.NewRecorder()
			lv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 || rec.Body.Len() == 0 {
				t.Errorf("/metrics after the run: status %d, %d bytes; the checkpoints never published", rec.Code, rec.Body.Len())
			}
			b, err := json.MarshalIndent(res, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(corpusDir, "testdata", name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(b, '\n'), want) {
				t.Errorf("%s.yaml with the live surface attached diverges from its golden", name)
			}
		})
	}
}
