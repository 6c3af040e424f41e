package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prism/internal/cluster"
)

const failoverGoldenPath = "testdata/failover_golden.json"

// The failover fixture runs the kill-and-recover grid — 8 hosts, 200
// containers, host 2 killed mid-run, all three placement policies — and
// must be bit-identical at 1, 2 and 4 workers (the CI
// failover-determinism job re-derives the committed digests).
func failoverCapture(workers int) FailoverResult {
	p := detParams()
	p.Workers = workers
	return Failover(p, Args{})
}

// TestFailoverGolden pins the recovery timeline bit-for-bit: the phase
// latency summaries, detection latency, migration counts, epoch version
// and the merged metrics/span digests must match the committed fixture
// for every worker count. Regenerate with:
//
//	go test ./internal/experiments -run TestFailoverGolden -update-golden
func TestFailoverGolden(t *testing.T) {
	got := failoverCapture(1)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(failoverGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(failoverGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("failover golden fixture rewritten: %s", failoverGoldenPath)
		return
	}

	raw, err := os.ReadFile(failoverGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want FailoverResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	check := func(name string, gotR FailoverResult) {
		w, g := mustJSON(t, want), mustJSON(t, gotR)
		if string(w) != string(g) {
			t.Errorf("%s diverged from failover golden fixture\nwant: %s\ngot:  %s", name, w, g)
		}
	}
	check("workers=1", got)
	for _, w := range []int{2, 4} {
		check("workers="+string(rune('0'+w)), failoverCapture(w))
	}
}

// TestFailoverGoldenHasSignal guards the fixture's reach: every
// placement row must show a real detection, a full migration of the
// victim's containers, exactly one epoch swap, frames absorbed at the
// crashed wire — and the recovered high-priority tail within 10% of the
// pre-crash tail (the acceptance bound), so the golden cannot pin a run
// where recovery silently failed.
func TestFailoverGoldenHasSignal(t *testing.T) {
	raw, err := os.ReadFile(failoverGoldenPath)
	if err != nil {
		t.Skipf("failover golden fixture not captured yet: %v", err)
	}
	var want FailoverResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want.Rows) != len(cluster.Placements) {
		t.Fatalf("fixture has %d rows, want one per placement", len(want.Rows))
	}
	for _, row := range want.Rows {
		if row.Detections != 1 {
			t.Errorf("%s: %d detections, want exactly the scripted crash", row.Placement, row.Detections)
		}
		if row.DetectLat <= 0 {
			t.Errorf("%s: non-positive detection latency %v", row.Placement, row.DetectLat)
		}
		if row.Migrated == 0 {
			t.Errorf("%s: no containers migrated off the dead host", row.Placement)
		}
		if row.SnapVersion != 2 {
			t.Errorf("%s: routing epoch %d, want exactly one swap", row.Placement, row.SnapVersion)
		}
		if row.CrashRx == 0 {
			t.Errorf("%s: nothing absorbed at the crashed host's wire", row.Placement)
		}
		if row.HiBefore.Count == 0 || row.HiDuring.Count == 0 || row.HiAfter.Count == 0 {
			t.Errorf("%s: empty high-priority phase: %+v", row.Placement, row)
		}
		// The acceptance bound: recovered hi-prio p99 within 10% of the
		// pre-crash p99.
		if limit := row.HiBefore.P99 + row.HiBefore.P99/10; row.HiAfter.P99 > limit {
			t.Errorf("%s: recovered hi p99 %v exceeds 110%% of pre-crash %v",
				row.Placement, row.HiAfter.P99, row.HiBefore.P99)
		}
		if len(row.MetricsSHA) != 64 || len(row.SpansSHA) != 64 {
			t.Errorf("%s: truncated digests", row.Placement)
		}
	}
}

// TestFailoverSeedDeterministic reruns one placement point twice with
// the same seed and demands divergent span streams for different seeds.
func TestFailoverSeedDeterministic(t *testing.T) {
	p := detParams()
	fc := Args{Hosts: 4, Containers: 48, Placements: []string{"spread"}}
	a := Failover(p, fc)
	b := Failover(p, fc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	p.Seed = 7
	c := Failover(p, fc)
	if a.Rows[0].SpansSHA == c.Rows[0].SpansSHA {
		t.Fatal("different seeds produced identical span streams")
	}
}
