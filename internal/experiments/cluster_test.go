package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prism/internal/cluster"
)

const clusterGoldenPath = "testdata/cluster_golden.json"

// The cluster fixture runs the acceptance-scale point — 16 hosts, 1000
// containers, all three placement policies — at detParams duration, and
// must be bit-identical at 1, 2 and 4 workers (the committed digests are
// what the CI cluster-determinism job re-derives).
func clusterCapture(workers int) ClusterResult {
	p := detParams()
	p.Workers = workers
	return Cluster(p, Args{})
}

// TestClusterGolden pins the datacenter experiment bit-for-bit: latency
// summaries, counts, fabric load, and the merged metrics/span digests of
// every placement policy must match the committed fixture for every
// worker count. Regenerate with:
//
//	go test ./internal/experiments -run TestClusterGolden -update-golden
func TestClusterGolden(t *testing.T) {
	got := clusterCapture(1)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(clusterGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(clusterGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("cluster golden fixture rewritten: %s", clusterGoldenPath)
		return
	}

	raw, err := os.ReadFile(clusterGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want ClusterResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	check := func(name string, gotR ClusterResult) {
		w, g := mustJSON(t, want), mustJSON(t, gotR)
		if string(w) != string(g) {
			t.Errorf("%s diverged from cluster golden fixture\nwant: %s\ngot:  %s", name, w, g)
		}
	}
	check("workers=1", got)
	for _, w := range []int{2, 4} {
		check("workers="+string(rune('0'+w)), clusterCapture(w))
	}
}

// TestClusterGoldenHasSignal guards the fixture's reach: the committed
// rows must show real traffic on both priority classes, a prioritized p99
// no worse than best-effort's, fabric utilization in (0, 1], and distinct
// digests per placement — so the golden cannot silently pin an idle or
// degenerate cluster.
func TestClusterGoldenHasSignal(t *testing.T) {
	raw, err := os.ReadFile(clusterGoldenPath)
	if err != nil {
		t.Skipf("cluster golden fixture not captured yet: %v", err)
	}
	var want ClusterResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if want.Hosts < 16 || want.Containers < 1000 {
		t.Fatalf("fixture below acceptance scale: %d hosts / %d containers", want.Hosts, want.Containers)
	}
	if len(want.Rows) != len(cluster.Placements) {
		t.Fatalf("fixture has %d rows, want one per placement", len(want.Rows))
	}
	digests := map[string]bool{}
	for _, row := range want.Rows {
		if row.HiRecv == 0 || row.LoRecv == 0 || row.FloodRecv == 0 {
			t.Errorf("%s: fixture looks idle: %+v", row.Placement, row)
		}
		if row.Hi.P99 > row.Lo.P99 {
			t.Errorf("%s: prioritized p99 (%v) worse than best-effort (%v)", row.Placement, row.Hi.P99, row.Lo.P99)
		}
		if row.FabricUtilMax <= 0 || row.FabricUtilMax > 1 {
			t.Errorf("%s: implausible fabric utilization %v", row.Placement, row.FabricUtilMax)
		}
		if len(row.MetricsSHA) != 64 || len(row.SpansSHA) != 64 {
			t.Errorf("%s: truncated digests", row.Placement)
		}
		digests[row.MetricsSHA] = true
	}
	if len(digests) != len(want.Rows) {
		t.Error("placement policies produced identical metrics digests — placement has no effect")
	}
}

// TestClusterSeedDeterministic reruns one placement point twice with the
// same seed (digest equality is the strongest check the run exposes) and
// demands a different span stream for a different seed.
func TestClusterSeedDeterministic(t *testing.T) {
	p := detParams()
	cc := Args{Hosts: 4, Containers: 48, Placements: []string{"spread"}}
	a := Cluster(p, cc)
	b := Cluster(p, cc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	p.Seed = 7
	c := Cluster(p, cc)
	if a.Rows[0].SpansSHA == c.Rows[0].SpansSHA {
		t.Fatal("different seeds produced identical span streams")
	}
}
