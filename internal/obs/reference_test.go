package obs

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// refTracer is the string-holding ring the pointer-free Tracer replaced,
// kept as its differential oracle: each slot is a whole Event, and the
// backing array grows by doubling up to the capacity.
type refTracer struct {
	capacity    int
	sampleEvery uint64
	events      []Event
	head        int
	seq         uint64
	Overwritten uint64
	SampledOut  uint64
}

func newRefTracer(capacity int) *refTracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &refTracer{capacity: capacity}
}

func (t *refTracer) SetSampling(n int) {
	t.sampleEvery = 0
	if n > 1 {
		t.sampleEvery = uint64(n)
	}
}

func (t *refTracer) add(kind EventKind, stage, dev string, id uint64, prio int, start, end sim.Time) {
	if t.sampleEvery > 1 && id != NoPacket && id%t.sampleEvery != 0 {
		t.SampledOut++
		return
	}
	ev := Event{Seq: t.seq, Kind: kind, Stage: stage, Device: dev, Pkt: id, Priority: prio, Start: start, End: end}
	t.seq++
	if n := len(t.events); n < t.capacity {
		if n == cap(t.events) {
			grown := make([]Event, n, min(max(2*n, 256), t.capacity))
			copy(grown, t.events)
			t.events = grown
		}
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	if t.head++; t.head == t.capacity {
		t.head = 0
	}
	t.Overwritten++
}

func (t *refTracer) Len() int      { return len(t.events) }
func (t *refTracer) Total() uint64 { return t.seq }

func (t *refTracer) Events() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	return append(out, t.events[:t.head]...)
}

func (t *refTracer) EventsSince(cursor uint64) []Event {
	if cursor >= t.seq {
		return nil
	}
	oldest := t.seq - uint64(len(t.events))
	skip := 0
	if cursor > oldest {
		skip = int(cursor - oldest)
	}
	return t.Events()[skip:]
}

// refPipeline is the map-keyed recording path the Stage handles replaced,
// kept as their differential oracle: every call looks its series up in the
// registry by (name, Labels), and the wait cursor is a map keyed by packet
// ID instead of a field on the SKB.
type refPipeline struct {
	Shard  string
	T      *refTracer
	M      *Registry
	lastAt map[uint64]sim.Time
}

func newRefPipeline(shard string) *refPipeline {
	return &refPipeline{Shard: shard, T: newRefTracer(0), M: NewRegistry(), lastAt: make(map[uint64]sim.Time)}
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
		ref.T, p.T = newRefTracer(300), NewTracer(300)
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
		if p.T.Len() != ref.T.Len() || p.T.Total() != ref.T.Total() || p.T.Overwritten != ref.T.Overwritten || p.T.SampledOut != ref.T.SampledOut {
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

// sameEvents reports whether two event slices are equal, nil-ness included.
func sameEvents(a, b []Event) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// sameTracer fails unless the ring and its reference hold the same
// events and counters.
func sameTracer(t *testing.T, tr *Tracer, ref *refTracer) {
	t.Helper()
	if !sameEvents(tr.Events(), ref.Events()) {
		t.Fatalf("events differ:\n got %+v\nwant %+v", tr.Events(), ref.Events())
	}
	if tr.Len() != ref.Len() || tr.Total() != ref.Total() || tr.Overwritten != ref.Overwritten || tr.SampledOut != ref.SampledOut {
		t.Fatalf("len/total/overwritten/sampled = %d/%d/%d/%d, reference %d/%d/%d/%d",
			tr.Len(), tr.Total(), tr.Overwritten, tr.SampledOut, ref.Len(), ref.Total(), ref.Overwritten, ref.SampledOut)
	}
}

// FuzzTracerMatchesReference drives the block ring and the string-holding
// reference with one op sequence — single events and bursts under names
// that include empty strings, sampling changes, and EventsSince at cursors
// before, inside and past the buffered range — at capacities of one, below
// one block, at and around block boundaries and over several blocks.
func FuzzTracerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 4, 200, 6, 0, 1, 5, 3, 4, 255, 6, 9, 2, 7})
	f.Add([]byte{6, 4, 255, 4, 255, 5, 2, 4, 90, 6, 40, 6, 3, 1, 17, 200, 30})
	f.Add([]byte{4, 3, 5, 100, 5, 10, 10, 4, 2, 3, 7, 50, 6, 3, 1, 4, 3, 3, 9, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		capacities := []int{1, 3, 100, spanBlock - 1, spanBlock, spanBlock + 1, 2*spanBlock + 7, 3 * spanBlock}
		capacity := capacities[int(next())%len(capacities)]
		tr, ref := NewTracer(capacity), newRefTracer(capacity)
		stages := []string{"", StageDMA, StageNIC, StageDrop}
		devs := []string{"", "eth0", "br0"}
		var now sim.Time
		adds := 0
		add := func(b byte, id uint64) {
			stage, dev := stages[b&3], devs[int(b>>2)%len(devs)]
			kind := KindInstant + EventKind(b>>7)
			prio := int(int8(b)) >> 4 // -8..7
			if b%11 == 0 {
				id = NoPacket
			}
			adds++
			now += sim.Time(b)
			end := now + sim.Time(b>>3)
			tr.add(kind, tr.intern(stage, dev), id, prio, now, end)
			ref.add(kind, stage, dev, id, prio, now, end)
		}
		for ops := 0; len(data) > 0 && ops < 256; ops++ {
			switch op := next(); op & 7 {
			case 0, 1, 2:
				add(next(), uint64(next()))
			case 3:
				// A burst of up to ~4 Ki events wraps the small rings many
				// times and fills several blocks of the large ones; the
				// budget keeps each input fast enough to fuzz.
				b, n := next(), 1+16*int(next())
				for i := 0; i < n && adds < 1<<15; i++ {
					add(b+byte(i), uint64(i))
				}
			case 4:
				n := int(next() % 5)
				tr.SetSampling(n)
				ref.SetSampling(n)
			case 5, 6:
				// A cursor up to 255² events behind the total, or a few past it.
				back := uint64(next()) * uint64(next())
				cursor := tr.Total() + uint64(op>>3&3)
				if back <= cursor {
					cursor -= back
				} else {
					cursor = 0
				}
				if got, want := tr.EventsSince(cursor), ref.EventsSince(cursor); !sameEvents(got, want) {
					t.Fatalf("EventsSince(%d) of %d buffered:\n got %+v\nwant %+v", cursor, ref.Len(), got, want)
				}
			case 7:
				sameTracer(t, tr, ref)
			}
		}
		sameTracer(t, tr, ref)
	})
}

// The ring holds only the blocks its write position has reached, trims the
// last one to the capacity, keeps the newest capacity events in order
// across wraps, and stores records the garbage collector need not scan.
func TestTracerBlocksBounded(t *testing.T) {
	const capacity = 3*spanBlock + 100
	tr := NewTracer(capacity)
	name := tr.intern(StageDMA, "eth0")
	for i := 0; i < 3*capacity; i++ {
		tr.add(KindInstant, name, uint64(i), 0, sim.Time(i), sim.Time(i))
		allocated := 0
		for _, b := range tr.blocks {
			allocated += len(b)
		}
		if want := min(capacity, (tr.Len()+spanBlock-1)/spanBlock*spanBlock); allocated != want {
			t.Fatalf("after %d events: %d records allocated, want %d", i+1, allocated, want)
		}
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("ring holds %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := uint64(2*capacity + i); ev.Pkt != want || ev.Seq != want || ev.Stage != StageDMA || ev.Device != "eth0" {
			t.Fatalf("event %d = %+v, want pkt and seq %d", i, ev, want)
		}
	}

	var noPointers func(reflect.Type) bool
	noPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !noPointers(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return noPointers(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return false
		}
		return true
	}
	rt := reflect.TypeOf(spanRecord{})
	if !noPointers(rt) || rt.Size() != 32 {
		t.Errorf("spanRecord is %d bytes, pointer-free %v; want 32 bytes and no pointers", rt.Size(), noPointers(rt))
	}
}

// A handle bound before the pipeline's tracer is replaced interns its
// name into the new tracer, whose name table starts empty and so assigns
// different indices.
func TestStageReinternsAfterTracerSwap(t *testing.T) {
	p := NewPipeline("s0")
	nic, br := p.Bind("eth0", StageNIC), p.Bind("br0", StageBridge)
	var c pkt.WaitCursor
	nic.Span(1, 0, 10, 20, &c)
	br.Span(1, 0, 30, 40, &c)
	old := p.T
	p.T = NewTracer(16)
	br.Span(2, 1, 50, 60, &c)
	p.Drop(70, "veth0", StageShed, 2, 1, &c)
	nic.Span(3, 0, 80, 90, &c)
	label := func(evs []Event) (out [][2]string) {
		for _, ev := range evs {
			out = append(out, [2]string{ev.Stage, ev.Device})
		}
		return out
	}
	want := [][2]string{{StageBridge, "br0"}, {StageDrop, "veth0"}, {StageNIC, "eth0"}}
	if got := label(p.T.Events()); !reflect.DeepEqual(got, want) {
		t.Errorf("new tracer labels %v, want %v", got, want)
	}
	if got, want := label(old.Events()), [][2]string{{StageNIC, "eth0"}, {StageBridge, "br0"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("old tracer labels %v, want %v", got, want)
	}
}

// The name table holds 65,536 distinct (stage, device) pairs, as many as
// a record's uint16 index can address; one more panics rather than
// wrapping onto another pair's name.
func TestTracerNameTableBound(t *testing.T) {
	tr := NewTracer(1)
	for i := 0; i <= math.MaxUint16; i++ {
		tr.intern(StageDrop, strconv.Itoa(i))
	}
	if i := tr.intern(StageDrop, "0"); i != 0 {
		t.Fatalf("re-interning the first pair gave index %d", i)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "name table full") || !strings.Contains(msg, "65537") {
			t.Errorf("65,537th pair: recovered %q, want a name-table-full panic", msg)
		}
	}()
	tr.intern(StageDrop, "one too many")
}
