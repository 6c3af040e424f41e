package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// record adds ev to tr through the tracer's recording path.
func record(tr *Tracer, ev Event) {
	tr.add(ev.Kind, tr.intern(ev.Stage, ev.Device), ev.Pkt, ev.Priority, ev.Start, ev.End)
}

func TestPipelineLifecycle(t *testing.T) {
	p := NewPipeline("s0")
	// Packet 7: DMA at 100, NIC span [150, 180], bridge span [200, 220],
	// delivered at 250.
	var c pkt.WaitCursor
	p.Bind("eth0", StageDMA).DMA(100, 7, 1, &c)
	p.Bind("eth0", StageIRQ).IRQ(110)
	p.Bind("eth0", StageNIC).Span(7, 1, 150, 180, &c)
	p.Bind("br0", StageBridge).Span(7, 1, 200, 220, &c)
	p.Bind("c0", StageSocket).Deliver(250, 7, 1, 100, &c)

	if got := p.M.CounterValue("prism_dma_frames_total", Labels{}); got != 1 {
		t.Errorf("dma counter = %d, want 1", got)
	}
	if got := p.M.CounterValue("prism_irqs_total", Labels{}); got != 1 {
		t.Errorf("irq counter = %d, want 1", got)
	}
	if got := p.M.CounterValue("prism_delivered_total", Labels{}); got != 1 {
		t.Errorf("delivered counter = %d, want 1", got)
	}
	// NIC wait = 150-100 = 50; NIC service = 30.
	wait := p.M.Histogram("prism_stage_wait_ns", Labels{Device: "eth0", Stage: StageNIC, Priority: 1, Shard: "s0"})
	if wait.Hist().Count() != 1 || wait.Hist().Max() != 50 {
		t.Errorf("nic wait = %v (n=%d), want 50", wait.Hist().Max(), wait.Hist().Count())
	}
	svc := p.M.Histogram("prism_stage_service_ns", Labels{Device: "eth0", Stage: StageNIC, Priority: 1, Shard: "s0"})
	if svc.Hist().Count() != 1 || svc.Hist().Max() != 30 {
		t.Errorf("nic service = %v, want 30", svc.Hist().Max())
	}
	// E2E = 250-100 = 150.
	e2e := p.M.Histogram("prism_e2e_latency_ns", Labels{Priority: 1, Shard: "s0"})
	if e2e.Hist().Count() != 1 || e2e.Hist().Max() != 150 {
		t.Errorf("e2e = %v, want 150", e2e.Hist().Max())
	}
	// Lifecycle closed.
	if c.Open || p.InFlight() != 0 {
		t.Errorf("in-flight = %d after deliver, want 0", p.InFlight())
	}
	// 5 events buffered.
	if p.T.Len() != 5 {
		t.Errorf("tracer len = %d, want 5", p.T.Len())
	}
}

func TestPipelineDropAndAbsorb(t *testing.T) {
	p := NewPipeline("")
	dma := p.Bind("eth0", StageDMA)
	var c1, c2 pkt.WaitCursor
	dma.DMA(10, 1, 0, &c1)
	dma.DMA(30, 2, 0, &c2)
	if p.InFlight() != 2 {
		t.Errorf("in-flight = %d, want 2", p.InFlight())
	}
	p.Drop(20, "eth0", StageNIC, 1, 0, &c1)
	p.Absorbed(40, "eth0", 2, 0, &c2)
	if p.InFlight() != 0 {
		t.Errorf("in-flight = %d, want 0", p.InFlight())
	}
	if got := p.M.CounterValue("prism_dropped_total", Labels{}); got != 1 {
		t.Errorf("dropped = %d", got)
	}
	if got := p.M.CounterValue("prism_gro_absorbed_total", Labels{}); got != 1 {
		t.Errorf("absorbed = %d", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		record(tr, Event{Stage: StageDMA, Pkt: uint64(i), Start: sim.Time(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	if tr.Overwritten != 6 {
		t.Errorf("overwritten = %d, want 6", tr.Overwritten)
	}
	// Ring holds the newest 4 events in recording order.
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Pkt != want {
			t.Errorf("event %d pkt = %d, want %d", i, ev.Pkt, want)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(0)
	tr.SetSampling(4)
	for i := 0; i < 16; i++ {
		record(tr, Event{Stage: StageNIC, Pkt: uint64(i), Start: sim.Time(i)})
	}
	record(tr, Event{Stage: StageIRQ, Pkt: NoPacket, Start: 100}) // device events always kept
	if tr.Len() != 5 {
		t.Errorf("len = %d, want 5 (pkts 0,4,8,12 + IRQ)", tr.Len())
	}
	if tr.SampledOut != 12 {
		t.Errorf("sampled out = %d, want 12", tr.SampledOut)
	}
	tr.SetSampling(0) // disable
	record(tr, Event{Stage: StageNIC, Pkt: 3, Start: 200})
	if tr.Len() != 6 {
		t.Errorf("len after disabling sampling = %d, want 6", tr.Len())
	}
}

func TestMergeEventsDeterministic(t *testing.T) {
	// Streams with interleaved and equal timestamps; one stream not
	// internally time-sorted (poll-batch spans start ahead of the clock).
	s0 := []Event{
		{Seq: 0, Kind: KindSpan, Stage: StageNIC, Start: 50, End: 60},
		{Seq: 1, Kind: KindInstant, Stage: StageIRQ, Start: 40, End: 40},
		{Seq: 2, Kind: KindSpan, Stage: StageNIC, Start: 50, End: 70},
	}
	s1 := []Event{
		{Seq: 0, Kind: KindInstant, Stage: StageDMA, Start: 50, End: 50},
	}
	m := MergeEvents(s0, s1)
	if len(m) != 4 {
		t.Fatalf("merged %d events, want 4", len(m))
	}
	if m[0].Stage != StageIRQ {
		t.Errorf("first merged event = %s, want irq (t=40)", m[0].Stage)
	}
	// Equal time 50: stream 0 before stream 1, seq order within stream 0.
	if m[1].Seq != 0 || m[1].Kind != KindSpan {
		t.Errorf("tie-break wrong: m[1] = %+v", m[1])
	}
	if m[2].Seq != 2 || m[3].Stage != StageDMA {
		t.Errorf("tie-break wrong: m[2]=%+v m[3]=%+v", m[2], m[3])
	}
	// Permuting events WITHIN a call must not matter for the sorted output
	// key; repeating the same call must be bit-identical.
	if !reflect.DeepEqual(m, MergeEvents(s0, s1)) {
		t.Error("MergeEvents not deterministic across calls")
	}
}

func TestRegistryMergeWorkerInvariance(t *testing.T) {
	// Record the same logical observations split across 1, 2 and 4
	// shard-local registries; merged exports must be bit-identical.
	record := func(regs []*Registry) *Registry {
		for i := 0; i < 1000; i++ {
			r := regs[i%len(regs)]
			l := Labels{Device: "eth0", Stage: StageNIC, Priority: i % 3}
			r.Counter("prism_stage_packets_total", l).Add(1)
			r.Histogram("prism_stage_service_ns", l).Observe(sim.Time(i * 10))
			r.Gauge("prism_backlog_depth", l).Set(float64(i % 17))
		}
		return MergeRegistries(regs...)
	}
	mk := func(n int) []*Registry {
		regs := make([]*Registry, n)
		for i := range regs {
			regs[i] = NewRegistry()
		}
		return regs
	}
	one := PrometheusText(record(mk(1)))
	two := PrometheusText(record(mk(2)))
	four := PrometheusText(record(mk(4)))
	if one != two || two != four {
		t.Error("merged Prometheus text differs across shard counts")
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("prism_delivered_total", Labels{Device: "c0", Priority: 1}).Add(42)
	r.Gauge("prism_backlog_depth", Labels{Device: "veth0"}).Set(3)
	r.Histogram("prism_e2e_latency_ns", Labels{Priority: 0}).Observe(1000)
	out := PrometheusText(r)
	for _, want := range []string{
		"# TYPE prism_delivered_total counter",
		`prism_delivered_total{device="c0",priority="1"} 42`,
		"# TYPE prism_backlog_depth gauge",
		"# TYPE prism_e2e_latency_ns summary",
		`prism_e2e_latency_ns{priority="0",quantile="0.5"} 1000`,
		`prism_e2e_latency_ns_sum{priority="0"} 1000`,
		`prism_e2e_latency_ns_count{priority="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsJSONValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("prism_irqs_total", Labels{Device: "eth0", Stage: StageIRQ}).Add(5)
	r.Histogram("prism_e2e_latency_ns", Labels{}).Observe(12345)
	b, err := MetricsJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 5 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].P50 != 12345 {
		t.Errorf("histograms = %+v", snap.Histograms)
	}
}

func TestChromeTraceValid(t *testing.T) {
	p := NewPipeline("vanilla")
	var c pkt.WaitCursor
	p.Bind("eth0", StageDMA).DMA(1000, 0, 1, &c)
	p.Bind("eth0", StageNIC).Span(0, 1, 2000, 3500, &c)
	p.Bind("c0", StageSocket).Deliver(5000, 0, 1, 1000, &c)
	b, err := ChromeTrace(TraceProcess{Name: "vanilla", Events: p.T.Events()})
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	var metas, spans, instants int
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			spans++
			if ev["dur"].(float64) != 1.5 { // 1500ns = 1.5µs
				t.Errorf("span dur = %v, want 1.5", ev["dur"])
			}
		case "i":
			instants++
		}
	}
	// process_name + 2 thread_name rows; 1 span; DMA + deliver instants.
	if metas != 3 || spans != 1 || instants != 2 {
		t.Errorf("metas/spans/instants = %d/%d/%d, want 3/1/2", metas, spans, instants)
	}
}

func TestStageBreakdown(t *testing.T) {
	p := NewPipeline("")
	dma, nic, br, sock := p.Bind("eth0", StageDMA), p.Bind("eth0", StageNIC), p.Bind("br0", StageBridge), p.Bind("c0", StageSocket)
	// Two packets through nic and bridge with known waits/services.
	for id := uint64(0); id < 2; id++ {
		base := sim.Time(id) * 1000
		var c pkt.WaitCursor
		dma.DMA(base, id, 0, &c)
		nic.Span(id, 0, base+100, base+150, &c) // wait 100, svc 50
		br.Span(id, 0, base+200, base+220, &c)  // wait 50, svc 20
		sock.Deliver(base+300, id, 0, base, &c)
	}
	rows := StageBreakdown(p.M)
	if len(rows) != 3 { // nic, bridge, socket (wait only)
		t.Fatalf("breakdown rows = %d, want 3: %+v", len(rows), rows)
	}
	if rows[0].Stage != StageNIC || rows[1].Stage != StageBridge || rows[2].Stage != StageSocket {
		t.Errorf("row order = %s,%s,%s", rows[0].Stage, rows[1].Stage, rows[2].Stage)
	}
	if rows[0].Packets != 2 || rows[0].Service.Max != 50 || rows[0].Wait.Max != 100 {
		t.Errorf("nic row = %+v", rows[0])
	}
	if rows[1].Service.Max != 20 || rows[1].Wait.Max != 50 {
		t.Errorf("bridge row = %+v", rows[1])
	}
	e2e := E2ESummary(p.M)
	if e2e.Count != 2 || e2e.Max != 300 {
		t.Errorf("e2e summary = %+v", e2e)
	}
	if out := FormatBreakdown("test", rows); !strings.Contains(out, "bridge") {
		t.Errorf("formatted breakdown missing stage:\n%s", out)
	}
}

func TestCounterValueFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", Labels{Device: "a", Priority: 1}).Add(1)
	r.Counter("x", Labels{Device: "b", Priority: 1}).Add(2)
	r.Counter("x", Labels{Device: "a", Priority: 2}).Add(4)
	if got := r.CounterValue("x", Labels{}); got != 7 {
		t.Errorf("unfiltered = %d, want 7", got)
	}
	if got := r.CounterValue("x", Labels{Device: "a"}); got != 5 {
		t.Errorf("device=a = %d, want 5", got)
	}
	if got := r.CounterValue("x", Labels{Priority: 1}); got != 3 {
		t.Errorf("priority=1 = %d, want 3", got)
	}
}
