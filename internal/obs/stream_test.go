package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// Label values containing the exposition format's escapable characters
// (backslash, double-quote, line feed) must round-trip per spec, and
// characters %q would over-escape (tabs, non-ASCII) must pass through raw.
func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("prism_test_total", Labels{Device: `ve"th\0` + "\nx"}).Add(1)
	r.Counter("prism_test_total", Labels{Device: "tab\there", Shard: "héøst"}).Add(2)
	out := PrometheusText(r)

	if !strings.Contains(out, `device="ve\"th\\0\nx"`) {
		t.Errorf("hostile label not escaped per exposition format:\n%s", out)
	}
	if !strings.Contains(out, "device=\"tab\there\"") {
		t.Errorf("tab should pass through unescaped (spec defines only \\\\ \\\" \\n):\n%s", out)
	}
	if !strings.Contains(out, `shard="héøst"`) {
		t.Errorf("non-ASCII should pass through raw:\n%s", out)
	}
	// No raw newline may survive inside a quoted label value: every line
	// must be a complete sample or comment.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Errorf("escaping leaked a raw newline into a label value:\n%s", out)
		}
	}
	// Benign values are untouched.
	if !strings.Contains(out, `device="tab`) || strings.Contains(out, `\t`) {
		t.Errorf("over-escaping detected:\n%s", out)
	}
}

func span(seq uint64, dev string, pkt uint64, start, end sim.Time) Event {
	return Event{Seq: seq, Kind: KindSpan, Stage: StageNIC, Device: dev, Pkt: pkt, Priority: 1, Start: start, End: end}
}

func decodeChrome(t *testing.T, b []byte) chromeTraceFile {
	t.Helper()
	var f chromeTraceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("ChromeTrace output is not valid JSON: %v", err)
	}
	return f
}

func TestChromeTraceZeroSpans(t *testing.T) {
	b, err := ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	f := decodeChrome(t, b)
	if len(f.TraceEvents) != 0 {
		t.Errorf("no processes should yield no events, got %d", len(f.TraceEvents))
	}

	// A process with zero events still gets its process_name row.
	b, err = ChromeTrace(TraceProcess{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	f = decodeChrome(t, b)
	if len(f.TraceEvents) != 1 || f.TraceEvents[0].Ph != "M" || f.TraceEvents[0].Name != "process_name" {
		t.Errorf("empty process should emit exactly its metadata row, got %+v", f.TraceEvents)
	}
}

func TestChromeTraceSingleProcess(t *testing.T) {
	evs := []Event{
		span(0, "eth0", 1, 100, 130),
		{Seq: 1, Kind: KindInstant, Stage: StageSocket, Device: "c0", Pkt: 1, Priority: 1, Start: 150, End: 150},
	}
	b, err := ChromeTrace(TraceProcess{Name: "run", Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	f := decodeChrome(t, b)
	// 1 process_name + 2 thread_name + 2 events.
	if len(f.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5:\n%s", len(f.TraceEvents), b)
	}
	var spans, instants int
	for _, ce := range f.TraceEvents {
		switch ce.Ph {
		case "X":
			spans++
			if ce.Dur == nil || *ce.Dur != 0.03 { // 30ns = 0.03µs
				t.Errorf("span dur = %v, want 0.03µs", ce.Dur)
			}
			if ce.Ts != 0.1 {
				t.Errorf("span ts = %v, want 0.1µs", ce.Ts)
			}
		case "i":
			instants++
		case "M":
			if ce.Pid != 1 {
				t.Errorf("metadata pid = %d, want 1", ce.Pid)
			}
		}
	}
	if spans != 1 || instants != 1 {
		t.Errorf("spans=%d instants=%d, want 1/1", spans, instants)
	}
}

// Multi-shard: each process keeps its own pid and thread-ID namespace,
// and events merged out of order still render sorted by start time.
func TestChromeTraceMergedShards(t *testing.T) {
	s0 := []Event{span(0, "eth0", 1, 300, 310), span(1, "eth0", 2, 100, 120)}
	s1 := []Event{span(0, "eth1", 3, 200, 250)}
	b, err := ChromeTrace(
		TraceProcess{Name: "shard0", Events: s0},
		TraceProcess{Name: "shard1", Events: s1},
	)
	if err != nil {
		t.Fatal(err)
	}
	f := decodeChrome(t, b)
	pids := map[int]bool{}
	var lastTs = map[int]float64{}
	for _, ce := range f.TraceEvents {
		pids[ce.Pid] = true
		if ce.Ph != "X" {
			continue
		}
		if ce.Ts < lastTs[ce.Pid] {
			t.Errorf("pid %d events not time-sorted: %v after %v", ce.Pid, ce.Ts, lastTs[ce.Pid])
		}
		lastTs[ce.Pid] = ce.Ts
	}
	if !pids[1] || !pids[2] {
		t.Errorf("expected two process IDs, got %v", pids)
	}
}

func TestEventsSinceCursor(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		record(tr, span(0, "eth0", uint64(i), sim.Time(i), sim.Time(i)))
	}
	first := tr.EventsSince(0)
	if len(first) != 3 {
		t.Fatalf("initial drain = %d events, want 3", len(first))
	}
	cursor := tr.Total()
	if got := tr.EventsSince(cursor); len(got) != 0 {
		t.Errorf("drain at cursor = %d events, want 0", len(got))
	}
	// Two more events; only they appear.
	record(tr, span(0, "eth0", 10, 10, 10))
	record(tr, span(0, "eth0", 11, 11, 11))
	delta := tr.EventsSince(cursor)
	if len(delta) != 2 || delta[0].Pkt != 10 || delta[1].Pkt != 11 {
		t.Fatalf("delta = %+v, want pkts 10,11", delta)
	}
	// Overflow the ring (capacity 4) past the cursor: the lost events are
	// skipped, the surviving ones drain in order.
	cursor = tr.Total() // 5
	for i := 0; i < 6; i++ {
		record(tr, span(0, "eth0", uint64(100+i), sim.Time(100+i), sim.Time(100+i)))
	}
	delta = tr.EventsSince(cursor)
	if len(delta) != 4 { // ring only holds the last 4
		t.Fatalf("post-overflow delta = %d events, want 4", len(delta))
	}
	for i, ev := range delta {
		if want := uint64(102 + i); ev.Pkt != want {
			t.Errorf("delta[%d].Pkt = %d, want %d", i, ev.Pkt, want)
		}
	}
}

type recordingSink struct {
	ats    []sim.Time
	deltas [][]Event
	regs   []*Registry
}

func (s *recordingSink) Checkpoint(at sim.Time, reg *Registry, delta []Event) {
	s.ats = append(s.ats, at)
	s.regs = append(s.regs, reg)
	s.deltas = append(s.deltas, delta)
}

// A Streamer hands each event to the sink exactly once, and its merged
// registry snapshot matches the end-of-run MergeRegistries result.
func TestStreamerExactlyOnce(t *testing.T) {
	p0, p1 := NewPipeline("s0"), NewPipeline("s1")
	sink := &recordingSink{}
	st := NewStreamer(sink, p0, p1)

	var c0, c1 pkt.WaitCursor
	p0.Bind("eth0", StageDMA).DMA(10, 1, 1, &c0)
	p1.Bind("eth1", StageDMA).DMA(10, 2, 0, &c1)
	st.Checkpoint(20)

	p0.Bind("eth0", StageNIC).Span(1, 1, 30, 40, &c0)
	st.Checkpoint(50)
	st.Checkpoint(60) // no new events

	if len(sink.ats) != 3 {
		t.Fatalf("sink saw %d checkpoints, want 3", len(sink.ats))
	}
	if n := len(sink.deltas[0]); n != 2 {
		t.Errorf("first delta = %d events, want 2", n)
	}
	if n := len(sink.deltas[1]); n != 1 || sink.deltas[1][0].Stage != StageNIC {
		t.Errorf("second delta = %+v, want the one NIC span", sink.deltas[1])
	}
	if n := len(sink.deltas[2]); n != 0 {
		t.Errorf("idle delta = %d events, want 0", n)
	}
	// The final snapshot equals the batch merge path.
	want := PrometheusText(MergeRegistries(p0.M, p1.M))
	if got := PrometheusText(sink.regs[2]); got != want {
		t.Errorf("streamed snapshot diverges from MergeRegistries:\n%s\nvs\n%s", got, want)
	}
	// Nil-safety.
	var nilStreamer *Streamer
	nilStreamer.Checkpoint(1)
	NewStreamer(nil).Checkpoint(1)
}

// ChromeStream output is valid NDJSON, equivalent event-for-event to the
// batch exporter, with metadata rows emitted once.
func TestChromeStreamNDJSON(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeStream("live")
	if err := cs.Append(&buf, []Event{span(0, "eth0", 1, 100, 130)}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Append(&buf, []Event{
		span(1, "eth0", 2, 200, 220),
		span(2, "br0", 2, 240, 260),
	}); err != nil {
		t.Fatal(err)
	}
	var lines []chromeEvent
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ce chromeEvent
		if err := json.Unmarshal(sc.Bytes(), &ce); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, ce)
	}
	// process_name, thread_name(eth0), span, span, thread_name(br0), span.
	if len(lines) != 6 {
		t.Fatalf("got %d NDJSON lines, want 6:\n%s", len(lines), buf.String())
	}
	if lines[0].Name != "process_name" || lines[1].Name != "thread_name" {
		t.Errorf("metadata rows missing or misordered: %+v", lines[:2])
	}
	var meta, spans int
	for _, ce := range lines {
		if ce.Ph == "M" {
			meta++
		}
		if ce.Ph == "X" {
			spans++
		}
	}
	if meta != 3 || spans != 3 {
		t.Errorf("meta=%d spans=%d, want 3/3", meta, spans)
	}
}
