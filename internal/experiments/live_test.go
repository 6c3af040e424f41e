package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"prism/internal/cluster"
	"prism/internal/live"
	"prism/internal/pcap"
)

// liveParams returns detParams with a fresh live surface attached —
// exactly what prismsim -listen does.
func liveParams(workers int) Params {
	p := detParams()
	p.Workers = workers
	p.Live = live.NewServer()
	return p
}

// TestClusterGoldenWithLiveSurface proves enabling the live operator
// surface is free: with a server attached — taps installed, classifier
// armed, checkpoints streaming every interval — the cluster rows must
// stay bit-identical to the committed golden fixture, at 1, 2 and 4
// workers. (The plain-run equivalence at all worker counts is
// TestClusterGolden; this test pins the -listen path against the same
// fixture.)
func TestClusterGoldenWithLiveSurface(t *testing.T) {
	raw, err := os.ReadFile(clusterGoldenPath)
	if err != nil {
		t.Skipf("cluster golden fixture not captured yet: %v", err)
	}
	var want ClusterResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	fixtureRow := func(placement string) ClusterRow {
		for _, row := range want.Rows {
			if row.Placement == placement {
				return row
			}
		}
		t.Fatalf("fixture has no %q row", placement)
		return ClusterRow{}
	}

	// All placements once at workers=1, then the spread placement again
	// in parallel — same coverage axes as the golden test, with the live
	// surface publishing throughout.
	p := liveParams(1)
	got := Cluster(p, DefaultClusterConfig())
	for _, row := range got.Rows {
		w, g := mustJSON(t, fixtureRow(row.Placement)), mustJSON(t, row)
		if string(w) != string(g) {
			t.Errorf("live surface perturbed %s\nwant: %s\ngot:  %s", row.Placement, w, g)
		}
	}
	cc := DefaultClusterConfig()
	cc.Placements = []cluster.Placement{cluster.PlaceSpread}
	for _, workers := range []int{2, 4} {
		got := Cluster(liveParams(workers), cc)
		w, g := mustJSON(t, fixtureRow(got.Rows[0].Placement)), mustJSON(t, got.Rows[0])
		if string(w) != string(g) {
			t.Errorf("live surface perturbed spread at workers=%d\nwant: %s\ngot:  %s", workers, w, g)
		}
	}
}

// TestChaosGoldenWithLiveSurface is the same proof for the chaos grid,
// whose points fan out concurrently and publish into one shared server:
// the full result must still match the committed fixture, sequentially
// and at workers=4.
func TestChaosGoldenWithLiveSurface(t *testing.T) {
	raw, err := os.ReadFile(chaosGoldenPath)
	if err != nil {
		t.Skipf("chaos golden fixture not captured yet: %v", err)
	}
	var want ChaosResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	for _, workers := range []int{1, 4} {
		p := chaosDetParams()
		p.Workers = workers
		p.Live = live.NewServer()
		got := Chaos(p, nil, chaosDetRates)
		w, g := mustJSON(t, want), mustJSON(t, got)
		if string(w) != string(g) {
			t.Errorf("live surface perturbed chaos at workers=%d\nwant: %s\ngot:  %s", workers, w, g)
		}
	}
}

// TestLiveSurfaceEndToEndCluster drives the whole consumer path against
// a real (small) cluster run: a pcap capture armed before the run
// streams classified high-priority frames with nanosecond timestamps,
// /metrics serves exactly the bytes the run's metrics digest pinned,
// and /trace replays a parseable NDJSON span stream.
func TestLiveSurfaceEndToEndCluster(t *testing.T) {
	lv := live.NewServer()
	ts := httptest.NewServer(lv.Handler())
	defer ts.Close()

	// Arm a bounded high-priority capture before the run starts.
	resp, err := http.Get(ts.URL + "/capture?prio=hi&max=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for i := 0; lv.CaptureSubscribers() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if lv.CaptureSubscribers() == 0 {
		t.Fatal("capture subscription never registered")
	}

	p := detParams()
	p.Live = lv
	cc := ClusterConfig{Hosts: 4, Containers: 48, Placements: []cluster.Placement{cluster.PlaceSpread}}
	res := Cluster(p, cc)
	row := res.Rows[0]

	// The bounded capture closed at max=5; it must parse as a pcap with
	// nanosecond-resolution virtual timestamps from inside the run.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pcap.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("streamed capture does not parse: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("captured %d frames, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.At <= 0 || rec.At > p.Warmup+p.Duration {
			t.Errorf("rec %d timestamp %v outside the run", i, rec.At)
		}
		if i > 0 && rec.At < recs[i-1].At {
			t.Errorf("timestamps not monotonic: %v after %v", rec.At, recs[i-1].At)
		}
	}

	// /metrics is the final checkpoint snapshot — the very bytes whose
	// sha256 the cluster row pinned as MetricsSHA.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", mresp.StatusCode)
	}
	if digest(prom) != row.MetricsSHA {
		t.Errorf("/metrics digest %s != row MetricsSHA %s", digest(prom), row.MetricsSHA)
	}

	// After Finish, /trace replays the backlog and terminates: every
	// line is a Chrome trace event, and real spans are present.
	lv.Finish()
	tresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	spans := 0
	sc := bufio.NewScanner(tresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Ph string `json:"ph"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.Ph == "X" {
			spans++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 {
		t.Error("trace stream carried no spans")
	}

	// /status after Finish: one terminal event, Done set, run labeled.
	sresp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var st live.Status
	line := bytes.TrimSpace(bytes.TrimPrefix(bytes.TrimSpace(sbody), []byte("data: ")))
	if err := json.Unmarshal(line, &st); err != nil {
		t.Fatalf("status payload %q: %v", sbody, err)
	}
	if !st.Done || st.Run != "cluster/spread" || st.Checkpoints == 0 {
		t.Errorf("terminal status = %+v", st)
	}
	// The last checkpoint carries the run's parallel-runtime counters.
	if st.Par == nil || st.Par.Windows == 0 || st.Par.Windows > row.Windows ||
		st.Par.ActiveShardWindows == 0 || st.Par.ActiveShardWindows > st.Par.ShardWindows {
		t.Errorf("status par stats = %+v (run windows %d)", st.Par, row.Windows)
	}
}
