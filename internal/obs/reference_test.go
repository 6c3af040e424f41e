package obs

import (
	"math/rand"
	"reflect"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// refPipeline is the map-keyed recording path the Stage handles replaced,
// kept as their differential oracle: every call looks its series up in the
// registry by (name, Labels), and the wait cursor is a map keyed by packet
// ID instead of a field on the SKB.
type refPipeline struct {
	Shard  string
	T      *Tracer
	M      *Registry
	lastAt map[uint64]sim.Time
}

func newRefPipeline(shard string) *refPipeline {
	return &refPipeline{Shard: shard, T: NewTracer(0), M: NewRegistry(), lastAt: make(map[uint64]sim.Time)}
}

func (p *refPipeline) DMA(now sim.Time, dev string, id uint64, prio int) {
	p.T.add(KindInstant, StageDMA, dev, id, prio, now, now)
	p.M.Counter("prism_dma_frames_total", Labels{Device: dev, Stage: StageDMA, Shard: p.Shard}).Add(1)
	p.lastAt[id] = now
}

func (p *refPipeline) IRQ(now sim.Time, dev string) {
	p.T.add(KindInstant, StageIRQ, dev, NoPacket, 0, now, now)
	p.M.Counter("prism_irqs_total", Labels{Device: dev, Stage: StageIRQ, Shard: p.Shard}).Add(1)
}

func (p *refPipeline) Span(dev, stage string, id uint64, prio int, start, end sim.Time) {
	p.T.add(KindSpan, stage, dev, id, prio, start, end)
	l := Labels{Device: dev, Stage: stage, Priority: prio, Shard: p.Shard}
	p.M.Counter("prism_stage_packets_total", l).Add(1)
	p.M.Histogram("prism_stage_service_ns", l).Observe(end - start)
	if last, ok := p.lastAt[id]; ok {
		p.M.Histogram("prism_stage_wait_ns", l).Observe(start - last)
	}
	p.lastAt[id] = end
}

func (p *refPipeline) Deliver(now sim.Time, dev string, id uint64, prio int, arrived sim.Time) {
	p.T.add(KindInstant, StageSocket, dev, id, prio, now, now)
	l := Labels{Device: dev, Stage: StageSocket, Priority: prio, Shard: p.Shard}
	p.M.Counter("prism_delivered_total", l).Add(1)
	if last, ok := p.lastAt[id]; ok {
		p.M.Histogram("prism_stage_wait_ns", l).Observe(now - last)
	}
	p.M.Histogram("prism_e2e_latency_ns", Labels{Priority: prio, Shard: p.Shard}).Observe(now - arrived)
	delete(p.lastAt, id)
}

func (p *refPipeline) Drop(now sim.Time, dev, stage string, id uint64, prio int) {
	p.T.add(KindInstant, StageDrop, dev, id, prio, now, now)
	p.M.Counter("prism_dropped_total", Labels{Device: dev, Stage: stage, Priority: prio, Shard: p.Shard}).Add(1)
	delete(p.lastAt, id)
}

func (p *refPipeline) Absorbed(now sim.Time, dev string, id uint64, prio int) {
	p.T.add(KindInstant, StageGRO, dev, id, prio, now, now)
	p.M.Counter("prism_gro_absorbed_total", Labels{Device: dev, Stage: StageGRO, Shard: p.Shard}).Add(1)
	delete(p.lastAt, id)
}

func (p *refPipeline) Fabric(dev string, id uint64, prio int, start, end sim.Time) {
	p.T.add(KindSpan, StageFabric, dev, id, prio, start, end)
	l := Labels{Device: dev, Stage: StageFabric, Priority: prio, Shard: p.Shard}
	p.M.Counter("prism_fabric_frames_total", l).Add(1)
	p.M.Histogram("prism_fabric_residency_ns", l).Observe(end - start)
}

func (p *refPipeline) FabricDrop(now sim.Time, dev, reason string, prio int) {
	p.T.add(KindInstant, StageDrop, dev, NoPacket, prio, now, now)
	p.M.Counter("prism_fabric_dropped_total", Labels{Device: dev, Stage: reason, Priority: prio, Shard: p.Shard}).Add(1)
}

// TestStageHandlesMatchReference drives the handle path and the map-keyed
// reference with one seeded random sequence of every recording call —
// including priorities beyond the pre-bound slots, spans on packets that
// never saw a DMA, and closes of already-closed lifecycles — and requires
// identical exports, span streams and in-flight counts.
func TestStageHandlesMatchReference(t *testing.T) {
	devs := []string{"eth0", "br0", "veth0"}
	spanStages := []string{StageNIC, StageBridge, StageVeth}
	socks := []string{"c0", "c1", "host"}
	ports := []string{"tor0/p0", "tor0/p1"}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, p := newRefPipeline("s0"), NewPipeline("s0")
		// A small ring wraps many times; some seeds also sample.
		ref.T, p.T = NewTracer(300), NewTracer(300)
		if seed%3 == 0 {
			ref.T.SetSampling(3)
			p.T.SetSampling(3)
		}
		handles := map[[2]string]*Stage{}
		handle := func(dev, stage string) *Stage {
			k := [2]string{dev, stage}
			if handles[k] == nil {
				handles[k] = p.Bind(dev, stage)
			}
			return handles[k]
		}
		// Each packet ID owns one cursor, as each SKB does.
		const packets = 40
		var cursors [packets]pkt.WaitCursor
		var now sim.Time
		for op := 0; op < 5000; op++ {
			now += sim.Time(rng.Intn(500))
			id := uint64(rng.Intn(packets))
			c := &cursors[id]
			prio := rng.Intn(MaxPriority+4) - 1 // -1 and > MaxPriority take the registry path
			dev := devs[rng.Intn(len(devs))]
			switch rng.Intn(9) {
			case 0:
				ref.DMA(now, dev, id, prio)
				handle(dev, StageDMA).DMA(now, id, prio, c)
			case 1:
				ref.IRQ(now, dev)
				handle(dev, StageIRQ).IRQ(now)
			case 2, 3, 4:
				i := rng.Intn(len(spanStages))
				start := now + sim.Time(rng.Intn(300)) - 100 // waits may be negative
				end := start + sim.Time(rng.Intn(2000))
				ref.Span(devs[i], spanStages[i], id, prio, start, end)
				handle(devs[i], spanStages[i]).Span(id, prio, start, end, c)
			case 5:
				sock := socks[rng.Intn(len(socks))]
				arrived := now - sim.Time(rng.Intn(50_000))
				ref.Deliver(now, sock, id, prio, arrived)
				handle(sock, StageSocket).Deliver(now, id, prio, arrived, c)
			case 6:
				ref.Drop(now, dev, StageShed, id, prio)
				p.Drop(now, dev, StageShed, id, prio, c)
			case 7:
				ref.Absorbed(now, dev, id, prio)
				p.Absorbed(now, dev, id, prio, c)
			case 8:
				port := ports[rng.Intn(len(ports))]
				if rng.Intn(4) == 0 {
					ref.FabricDrop(now, port, "queue-full", prio)
					p.FabricDrop(now, port, "queue-full", prio)
					break
				}
				end := now + sim.Time(rng.Intn(5000))
				ref.Fabric(port, uint64(op), prio, now, end)
				handle(port, StageFabric).Fabric(uint64(op), prio, now, end)
			}
		}
		if got, want := PrometheusText(p.M), PrometheusText(ref.M); got != want {
			t.Fatalf("seed %d: Prometheus text differs:\n%s\nreference:\n%s", seed, got, want)
		}
		if !reflect.DeepEqual(p.T.Events(), ref.T.Events()) {
			t.Fatalf("seed %d: span streams differ", seed)
		}
		if p.T.Total() != ref.T.Total() || p.T.Overwritten != ref.T.Overwritten || p.T.SampledOut != ref.T.SampledOut {
			t.Fatalf("seed %d: tracer counters differ", seed)
		}
		if p.InFlight() != len(ref.lastAt) {
			t.Fatalf("seed %d: in-flight %d, reference %d", seed, p.InFlight(), len(ref.lastAt))
		}
	}
}

// A bound handle registers nothing until it records: zero-valued series
// would change every committed digest.
func TestStageRegistersOnFirstUse(t *testing.T) {
	p := NewPipeline("s0")
	nic := p.Bind("eth0", StageNIC)
	p.Bind("eth0", StageDMA)
	p.Bind("c0", StageSocket)
	if out := PrometheusText(p.M); out != "" {
		t.Fatalf("bound idle handles exported series:\n%s", out)
	}
	// A span on a packet with no open lifecycle records no wait.
	var c pkt.WaitCursor
	nic.Span(1, 2, 10, 20, &c)
	p.M.EachHistogram(func(name string, l Labels, _ *HistogramMetric) {
		if name == "prism_stage_wait_ns" {
			t.Errorf("wait histogram registered before any wait was observed: %+v", l)
		}
	})
	if got := p.M.CounterValue("prism_stage_packets_total", Labels{Priority: 2}); got != 1 {
		t.Errorf("packets = %d, want 1", got)
	}
}

// Bound rebinds a cached handle only when the pipeline changes.
func TestBoundCachesPerPipeline(t *testing.T) {
	p, q := NewPipeline("p"), NewPipeline("q")
	var h *Stage
	a := p.Bound(&h, "br0", StageBridge)
	if b := p.Bound(&h, "br0", StageBridge); b != a {
		t.Error("Bound rebound a handle already bound to the pipeline")
	}
	if c := q.Bound(&h, "br0", StageBridge); c == a || h != c {
		t.Error("Bound kept a handle bound to another pipeline")
	}
}

// The ring grows by doubling up to its capacity, so filling a
// power-of-two ring allocates less than twice the final array.
func TestTracerGrowthBounded(t *testing.T) {
	const capacity = 1 << 12
	tr := NewTracer(capacity)
	caps := map[int]bool{}
	for i := 0; i < 3*capacity; i++ {
		tr.add(KindInstant, StageDMA, "eth0", uint64(i), 0, sim.Time(i), sim.Time(i))
		caps[cap(tr.events)] = true
	}
	total := 0
	for c := range caps {
		total += c
	}
	if cap(tr.events) != capacity || total >= 2*capacity {
		t.Errorf("final cap %d, arrays allocated sum to %d events", cap(tr.events), total)
	}
	if evs := tr.Events(); len(evs) != capacity || evs[0].Pkt != 2*capacity || evs[capacity-1].Pkt != 3*capacity-1 {
		t.Errorf("ring holds %d events, pkts %d..%d", len(evs), evs[0].Pkt, evs[len(evs)-1].Pkt)
	}
}
