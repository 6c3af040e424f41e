package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/pcap"
	"prism/internal/sim"
)

func checkpointOnce(s *Server, at sim.Time, delivered uint64, events []obs.Event) {
	reg := obs.NewRegistry()
	reg.Counter("prism_delivered_total", obs.Labels{Device: "c0", Priority: 1}).Add(delivered)
	s.Checkpoint(at, reg, events)
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("pre-checkpoint /metrics = %d, want 503", resp.StatusCode)
	}

	checkpointOnce(s, 10*sim.Millisecond, 42, nil)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "# TYPE prism_delivered_total counter") ||
		!strings.Contains(string(body), "prism_delivered_total{device=\"c0\",priority=\"1\"} 42") {
		t.Errorf("/metrics body:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}

	// JSON twin parses.
	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics.json is not a snapshot: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 42 {
		t.Errorf("snapshot counters = %+v", snap.Counters)
	}
}

func TestStatusSSE(t *testing.T) {
	s := NewServer()
	s.SetRun("cluster/prism", 110*sim.Millisecond)
	s.PublishFabric(map[string]float64{"tor00->host00": 0.25})
	s.PublishPar(par.Stats{Windows: 40, ShardWindows: 120, ActiveShardWindows: 70, BarrierWaitNs: 5000})
	checkpointOnce(s, 10*sim.Millisecond, 100, nil)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	rd := bufio.NewReader(resp.Body)
	readEvent := func() Status {
		t.Helper()
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("SSE read: %v", err)
			}
			if strings.HasPrefix(line, "data: ") {
				var st Status
				if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &st); err != nil {
					t.Fatalf("SSE payload: %v", err)
				}
				return st
			}
		}
	}
	st := readEvent()
	if st.Run != "cluster/prism" || st.Delivered != 100 || st.VirtualNs != int64(10*sim.Millisecond) {
		t.Errorf("initial status = %+v", st)
	}
	if st.FabricUtil["tor00->host00"] != 0.25 {
		t.Errorf("fabric util missing: %+v", st.FabricUtil)
	}
	if st.Par == nil || st.Par.Windows != 40 || st.Par.ActiveShardWindows != 70 || st.Par.BarrierWaitNs != 5000 {
		t.Errorf("par stats missing: %+v", st.Par)
	}
	// 10ms of virtual time, 100 packets → 10k pkts/sec virtual.
	if st.PktsPerSec < 9999 || st.PktsPerSec > 10001 {
		t.Errorf("pkts/sec = %v, want ~10000", st.PktsPerSec)
	}

	// A new checkpoint arrives as a new event; Finish ends the stream.
	checkpointOnce(s, 20*sim.Millisecond, 250, nil)
	st = readEvent()
	if st.Delivered != 250 || st.Checkpoints != 2 {
		t.Errorf("second status = %+v", st)
	}
	s.Finish()
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		io.ReadAll(rd)
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("SSE stream did not terminate after Finish")
	}
}

func span(seq uint64, dev string, start, end sim.Time) obs.Event {
	return obs.Event{Seq: seq, Kind: obs.KindSpan, Stage: obs.StageNIC, Device: dev, Pkt: seq, Priority: 1, Start: start, End: end}
}

func TestTraceNDJSONBacklogAndLive(t *testing.T) {
	s := NewServer()
	checkpointOnce(s, 10*sim.Millisecond, 1, []obs.Event{span(0, "eth0", 100, 130)})

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	// A later checkpoint streams to the open connection; Finish ends it.
	checkpointOnce(s, 20*sim.Millisecond, 2, []obs.Event{span(1, "eth0", 200, 230)})
	s.Finish()

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ev struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		names = append(names, ev.Ph+":"+ev.Name)
	}
	want := []string{"M:process_name", "M:thread_name", "X:nic", "X:nic"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("trace lines = %v, want %v", names, want)
	}
}

func TestCaptureSelectorsAndPcap(t *testing.T) {
	s := NewServer()
	s.SetClassifier(func(frame []byte) (string, bool, bool) {
		switch {
		case bytes.HasPrefix(frame, []byte("hi:")):
			return "hi0001", true, true
		case bytes.HasPrefix(frame, []byte("lo:")):
			return "lo0001", false, true
		}
		return "", false, false
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, error) { return http.Get(ts.URL + path) }

	// Bad queries are rejected.
	for _, p := range []string{"/capture?prio=nope", "/capture?max=-1", "/capture?dir=sideways"} {
		resp, err := get(p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", p, resp.StatusCode)
		}
	}

	// Streaming capture: only hi-priority frames on host01, bounded at 2.
	resp, err := get("/capture?prio=hi&host=host01&max=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until the subscription is registered before tapping.
	for i := 0; s.hub.active.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.hub.active.Load() == 0 {
		t.Fatal("capture subscription never registered")
	}
	s.Tap("host00", 1000, []byte("hi:wrong-host"), false)
	s.Tap("host01", 2000, []byte("lo:wrong-prio"), false)
	s.Tap("host01", 3*sim.Millisecond+7, []byte("hi:match-1"), false)
	s.Tap("host01", 4000, []byte("??:unclassifiable"), false)
	s.Tap("host01", 5*sim.Millisecond+11, []byte("hi:match-2"), true)

	body, err := io.ReadAll(resp.Body) // max=2 closes the stream
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pcap.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("streamed capture does not parse: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("captured %d frames, want 2", len(recs))
	}
	if string(recs[0].Frame) != "hi:match-1" || string(recs[1].Frame) != "hi:match-2" {
		t.Errorf("wrong frames captured: %q, %q", recs[0].Frame, recs[1].Frame)
	}
	// Nanosecond-exact timestamps survive the stream.
	if recs[0].At != 3*sim.Millisecond+7 || recs[1].At != 5*sim.Millisecond+11 {
		t.Errorf("timestamps = %v, %v", recs[0].At, recs[1].At)
	}

	// An unfiltered capture ends at Finish with whatever arrived.
	resp2, err := get("/capture")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	for i := 0; s.hub.active.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	s.Tap("host09", 7000, []byte("??:anything"), false)
	s.Finish()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := pcap.Parse(bytes.NewReader(body2))
	if err != nil || len(recs2) != 1 {
		t.Fatalf("unfiltered capture = %d recs, err %v; want 1", len(recs2), err)
	}

	// After Finish, a new capture returns an empty-but-valid pcap.
	resp3, err := get("/capture")
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if recs3, err := pcap.Parse(bytes.NewReader(body3)); err != nil || len(recs3) != 0 {
		t.Errorf("post-finish capture = %d recs, err %v; want empty capture", len(recs3), err)
	}
}

// /status breaks capture drops down per subscriber: each live stream
// appears with its filter, queue depth and own drop counter, oldest
// subscription first.
func TestStatusCaptureSubscriberDrops(t *testing.T) {
	s := NewServer()
	slow := s.hub.subscribe(selector{prio: "hi", host: "host01"})
	defer s.hub.unsubscribe(slow)
	fast := s.hub.subscribe(selector{})
	defer s.hub.unsubscribe(fast)

	// Overflow both buffers; the all-frames subscriber drains first so
	// only the stalled hi-filter stream keeps dropping.
	s.SetClassifier(func(frame []byte) (string, bool, bool) { return "hi0001", true, true })
	for i := 0; i < subBufDepth+5; i++ {
		s.Tap("host01", sim.Time(i), []byte("hi:x"), false)
	}
	for len(fast.ch) > 0 {
		<-fast.ch
	}
	for i := 0; i < 3; i++ {
		s.Tap("host01", sim.Time(i), []byte("hi:y"), false)
	}
	checkpointOnce(s, 10*sim.Millisecond, 1, nil)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	var st Status
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &st); err != nil {
				t.Fatalf("SSE payload: %v", err)
			}
			break
		}
	}
	if len(st.CaptureSubs) != 2 {
		t.Fatalf("capture_subs = %+v, want 2 entries", st.CaptureSubs)
	}
	if st.CaptureSubs[0].ID >= st.CaptureSubs[1].ID {
		t.Errorf("capture_subs not id-ordered: %+v", st.CaptureSubs)
	}
	sl, fa := st.CaptureSubs[0], st.CaptureSubs[1]
	if sl.Selector != "host=host01 prio=hi" || fa.Selector != "all" {
		t.Errorf("selectors = %q, %q", sl.Selector, fa.Selector)
	}
	if sl.Dropped != 8 || sl.Queued != subBufDepth {
		t.Errorf("stalled sub = %+v, want dropped 8 queued %d", sl, subBufDepth)
	}
	if fa.Dropped != 5 || fa.Queued != 3 {
		t.Errorf("drained sub = %+v, want dropped 5 queued 3", fa)
	}
	if st.CaptureDropped != sl.Dropped+fa.Dropped {
		t.Errorf("capture_dropped = %d, want %d", st.CaptureDropped, sl.Dropped+fa.Dropped)
	}
}

// The tap path is free when nobody subscribes and never blocks when a
// subscriber stalls: excess frames are dropped and counted.
func TestTapNonBlocking(t *testing.T) {
	s := NewServer()
	// No subscribers: taps are no-ops.
	s.Tap("host00", 1, []byte("x"), false)

	sub := s.hub.subscribe(selector{})
	defer s.hub.unsubscribe(sub)
	for i := 0; i < subBufDepth+10; i++ {
		s.Tap("host00", sim.Time(i), []byte("y"), false)
	}
	if got := s.CaptureDropped(); got != 10 {
		t.Errorf("dropped = %d, want 10", got)
	}
	if len(sub.ch) != subBufDepth {
		t.Errorf("buffered = %d, want %d", len(sub.ch), subBufDepth)
	}
}
