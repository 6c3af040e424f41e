// Package obs is the simulator's observability subsystem: per-packet
// lifecycle spans and a labeled metrics registry, with exporters to the
// formats real tooling consumes (Prometheus text exposition, JSON
// snapshots, Chrome trace-event JSON loadable in Perfetto).
//
// It is the in-simulator equivalent of the instrumentation the paper's
// evaluation rests on — the eBPF poll-order tables of Fig. 6, the
// per-stage latency decompositions behind Figs. 4–5, and the CPU-usage
// accounting of Figs. 10–13 — generalized so every layer of the receive
// pipeline (DMA ring → IRQ → NAPI poll → bridge forward → VXLAN decap →
// veth poll → socket deliver) reports into one place.
//
// # Collection model
//
// A Pipeline bundles one Tracer (bounded span stream) and one Registry
// (labeled counters/gauges/histograms) for one collection domain — a
// single engine instance: one host, one shard, or one mode run. All
// instrumentation points (internal/nic, internal/softirq,
// internal/socket, internal/cluster) hold an optional *Pipeline and are
// zero-cost when it is nil.
//
// The per-packet calls go through Stage handles bound once per (device,
// stage) pair: a handle caches its metrics per priority level, so
// recording a packet indexes an array instead of hashing a label set.
// The queue-wait cursor travels with the packet itself (pkt.WaitCursor on
// the SKB), so no per-packet state lives in the pipeline.
//
// # Determinism under sharding
//
// Collection is strictly shard-local: a Pipeline is only ever touched by
// the single goroutine running its engine, so no synchronization exists
// on the hot path. Aggregation happens after the run via Registry.Merge
// and MergeEvents, both deterministic: counter merge is addition,
// histogram merge is per-bucket addition (both order-independent), and
// event-stream merge sorts by the stable key (time, stream index,
// per-stream sequence). The parallel determinism regressions in
// internal/experiments assert metrics and span streams are bit-identical
// across 1/2/4 workers.
package obs

import (
	"fmt"
	"math"
	"sort"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// Canonical stage names, in pipeline order. They are the values of the
// "stage" metric label and the span names in trace exports.
const (
	StageDMA    = "dma"    // frame DMA'd into the RX descriptor ring
	StageIRQ    = "irq"    // hardware interrupt raised (device-level)
	StageNIC    = "nic"    // stage-1 driver poll, incl. VXLAN decap
	StageBridge = "bridge" // stage-2 bridge FDB forward
	StageVeth   = "veth"   // stage-3 backlog/veth poll
	StageSocket = "socket" // payload copied into the socket buffer
	StageGRO    = "gro"    // frame absorbed into a GRO super-SKB
	StageDrop   = "drop"   // packet discarded
	StageShed   = "shed"   // low-priority packet evicted by the overload policy
)

// PipelineStages lists the span-producing stages of the overlay receive
// path in order, for breakdown reports.
var PipelineStages = []string{StageNIC, StageBridge, StageVeth, StageSocket}

// NoPacket marks device-level events (IRQs) that have no packet identity.
const NoPacket = ^uint64(0)

// MaxPriority is the highest priority level a Stage handle pre-binds; it
// equals netdev.MaxPriorityLevels (netdev checks this at compile time).
// Higher levels still record correctly, through registry lookups.
const MaxPriority = 8

// EventKind distinguishes point events from intervals.
type EventKind uint8

// Event kinds.
const (
	KindInstant EventKind = iota + 1
	KindSpan
)

// Event is one lifecycle observation: an instant (DMA, IRQ, deliver,
// drop) or a span (a stage processing a packet). Instants have
// Start == End.
type Event struct {
	// Seq is the per-tracer sequence number; MergeEvents uses it to break
	// equal-time ties within one stream.
	Seq      uint64
	Kind     EventKind
	Stage    string
	Device   string
	Pkt      uint64 // NoPacket for device-level events
	Priority int
	Start    sim.Time
	End      sim.Time
}

// Time returns the event's representative timestamp (span start).
func (e Event) Time() sim.Time { return e.Start }

// Duration returns the span length (zero for instants).
func (e Event) Duration() sim.Time { return e.End - e.Start }

// Pipeline is the per-engine-instance observability bundle: a Tracer for
// the span stream and a Registry for metrics. The registry must not be
// replaced once handles are bound: they hold pointers into it.
type Pipeline struct {
	// Shard labels every metric this pipeline records; it identifies the
	// collection domain (cluster host, mode run) in merged exports.
	Shard string

	T *Tracer
	M *Registry

	// e2e records end-to-end latency: a handle with no device or stage,
	// so its series carry only the priority and shard labels.
	e2e *Stage
	// opened and closed count packet lifecycles started and ended.
	opened, closed uint64
}

// NewPipeline returns a pipeline labeled with the given shard name, with
// a default-capacity tracer and an empty registry.
func NewPipeline(shard string) *Pipeline {
	p := &Pipeline{Shard: shard, T: NewTracer(0), M: NewRegistry()}
	p.e2e = p.Bind("", "")
	return p
}

// Stage is a recording handle bound to one (device, stage) pair of a
// pipeline; each device, socket table or switch port resolves its handles
// once, when it is wired to the pipeline. The handle caches its metrics in
// one slot per priority level. A slot registers a series in the Registry
// on first use, never at bind time, so a bound but idle handle adds
// nothing to the exports.
type Stage struct {
	p          *Pipeline
	dev, stage string
	// tr is the tracer name was interned into; the handle re-interns when
	// the pipeline's tracer is replaced.
	tr    *Tracer
	name  uint16
	slots [MaxPriority + 1]slot
}

// slot holds one priority level's metrics: the stage's packet counter,
// its service (or fabric residency) histogram and its queue-wait
// histogram.
type slot struct {
	count      *Counter
	hist, wait *HistogramMetric
}

// Bind returns a handle recording as device dev at the given stage.
func (p *Pipeline) Bind(dev, stage string) *Stage {
	return &Stage{p: p, dev: dev, stage: stage}
}

// Bound returns the handle cached in *h, first binding (dev, stage) into
// it when it is unset or bound to another pipeline. Components whose
// pipeline is assigned after construction bind lazily through it.
func (p *Pipeline) Bound(h **Stage, dev, stage string) *Stage {
	if *h == nil || (*h).p != p {
		*h = p.Bind(dev, stage)
	}
	return *h
}

func (s *Stage) labels(prio int) Labels {
	return Labels{Device: s.dev, Stage: s.stage, Priority: prio, Shard: s.p.Shard}
}

// slot returns prio's slot. Levels beyond MaxPriority get a fresh slot per
// call, so their series are looked up in the registry every time.
func (s *Stage) slot(prio int) *slot {
	if uint(prio) < uint(len(s.slots)) {
		return &s.slots[prio]
	}
	return &slot{}
}

func (s *Stage) counter(c **Counter, name string, prio int) *Counter {
	if *c == nil {
		*c = s.p.M.Counter(name, s.labels(prio))
	}
	return *c
}

func (s *Stage) hist(h **HistogramMetric, name string, prio int) *HistogramMetric {
	if *h == nil {
		*h = s.p.M.Histogram(name, s.labels(prio))
	}
	return *h
}

// trace records one event in the pipeline's tracer under the handle's
// (stage, device) name.
func (s *Stage) trace(kind EventKind, id uint64, prio int, start, end sim.Time) {
	t := s.p.T
	if t != s.tr {
		s.tr, s.name = t, t.intern(s.stage, s.dev)
	}
	t.add(kind, s.name, id, prio, start, end)
}

// mark records t as the packet's latest lifecycle event, opening the
// lifecycle if it is not open yet.
func (p *Pipeline) mark(c *pkt.WaitCursor, t sim.Time) {
	if !c.Open {
		c.Open = true
		p.opened++
	}
	c.At = t
}

// close ends the packet's lifecycle, if it is open.
func (p *Pipeline) close(c *pkt.WaitCursor) {
	if c.Open {
		c.Open = false
		p.closed++
	}
}

// DMA records a frame entering the RX descriptor ring (the handle is
// bound to StageDMA). It opens the packet's lifecycle: the gap to the
// first stage span is the ring wait. The DMA counter is per device, not
// per priority: the stage-1 limitation means the ring has not classified
// the frame yet.
func (s *Stage) DMA(now sim.Time, id uint64, prio int, c *pkt.WaitCursor) {
	s.trace(KindInstant, id, prio, now, now)
	s.counter(&s.slots[0].count, "prism_dma_frames_total", 0).Add(1)
	s.p.mark(c, now)
}

// IRQ records a hardware interrupt raised by the device (the handle is
// bound to StageIRQ).
func (s *Stage) IRQ(now sim.Time) {
	s.trace(KindInstant, NoPacket, 0, now, now)
	s.counter(&s.slots[0].count, "prism_irqs_total", 0).Add(1)
}

// Span records the stage processing one packet over [start, end]. The
// wait histogram receives the gap since the packet's previous lifecycle
// event (its time queued before this stage); the service histogram
// receives the span length.
func (s *Stage) Span(id uint64, prio int, start, end sim.Time, c *pkt.WaitCursor) {
	s.trace(KindSpan, id, prio, start, end)
	sl := s.slot(prio)
	s.counter(&sl.count, "prism_stage_packets_total", prio).Add(1)
	s.hist(&sl.hist, "prism_stage_service_ns", prio).Observe(end - start)
	if c.Open {
		s.hist(&sl.wait, "prism_stage_wait_ns", prio).Observe(start - c.At)
	}
	s.p.mark(c, end)
}

// Deliver records the payload reaching a socket buffer at time now (the
// handle is bound to StageSocket) and closes the packet's lifecycle.
// arrived is the packet's NIC-ring entry time; the difference feeds the
// end-to-end latency histogram.
func (s *Stage) Deliver(now sim.Time, id uint64, prio int, arrived sim.Time, c *pkt.WaitCursor) {
	p := s.p
	s.trace(KindInstant, id, prio, now, now)
	sl := s.slot(prio)
	s.counter(&sl.count, "prism_delivered_total", prio).Add(1)
	if c.Open {
		s.hist(&sl.wait, "prism_stage_wait_ns", prio).Observe(now - c.At)
	}
	p.close(c)
	e2e := p.e2e.slot(prio)
	p.e2e.hist(&e2e.hist, "prism_e2e_latency_ns", prio).Observe(now - arrived)
}

// StageFabric is the datacenter fabric forwarding stage: a ToR or spine
// switch carrying a frame between hosts (internal/cluster).
const StageFabric = "fabric"

// Fabric records the switch port forwarding a frame over [start, end] —
// egress queue wait plus serialization onto the output link (the handle
// is bound to StageFabric). Unlike Span it has no wait cursor: fabric
// packet IDs are switch-local sequence numbers, not host SKB identities,
// and a fabric frame never reaches Deliver on this pipeline.
func (s *Stage) Fabric(id uint64, prio int, start, end sim.Time) {
	s.trace(KindSpan, id, prio, start, end)
	sl := s.slot(prio)
	s.counter(&sl.count, "prism_fabric_frames_total", prio).Add(1)
	s.hist(&sl.hist, "prism_fabric_residency_ns", prio).Observe(end - start)
}

// Drop records a packet discarded at a stage (handler verdict, queue
// overrun, rcvbuf overflow) and closes its lifecycle.
func (p *Pipeline) Drop(now sim.Time, dev, stage string, id uint64, prio int, c *pkt.WaitCursor) {
	p.T.add(KindInstant, p.T.intern(StageDrop, dev), id, prio, now, now)
	p.M.Counter("prism_dropped_total", Labels{Device: dev, Stage: stage, Priority: prio, Shard: p.Shard}).Add(1)
	p.close(c)
}

// Absorbed records a frame merged into an earlier SKB by GRO; the frame's
// own lifecycle ends here (the super-SKB carries on).
func (p *Pipeline) Absorbed(now sim.Time, dev string, id uint64, prio int, c *pkt.WaitCursor) {
	p.T.add(KindInstant, p.T.intern(StageGRO, dev), id, prio, now, now)
	p.M.Counter("prism_gro_absorbed_total", Labels{Device: dev, Stage: StageGRO, Shard: p.Shard}).Add(1)
	p.close(c)
}

// InFlight reports how many packet lifecycles are open: opened but not
// yet delivered, dropped or absorbed (diagnostic).
func (p *Pipeline) InFlight() int { return int(p.opened - p.closed) }

// FabricDrop records a frame the fabric discarded — egress queue overflow,
// a low-priority victim evicted for a high-priority frame, or no route in
// the control-plane snapshot. reason becomes the stage label so drop
// causes stay separable in merged exports.
func (p *Pipeline) FabricDrop(now sim.Time, dev, reason string, prio int) {
	p.T.add(KindInstant, p.T.intern(StageDrop, dev), NoPacket, prio, now, now)
	p.M.Counter("prism_fabric_dropped_total", Labels{Device: dev, Stage: reason, Priority: prio, Shard: p.Shard}).Add(1)
}

// DefaultTracerCap bounds the span ring buffer: 64 Ki events of 32 bytes
// is 2 MB, and several full softirq bursts of context.
const DefaultTracerCap = 1 << 16

// The ring is stored in blocks of spanBlock records, allocated as the
// write position first reaches each one.
const (
	spanBlockShift = 10
	spanBlock      = 1 << spanBlockShift
	spanBlockMask  = spanBlock - 1
)

// spanRecord is one buffered Event in 32 bytes with no pointers, so the
// garbage collector never scans the ring. Its sequence number is implicit
// in its ring position, and its (stage, device) pair is an index into the
// tracer's name table.
type spanRecord struct {
	pkt        uint64
	start, end sim.Time
	priority   int32
	name       uint16
	kind       EventKind
}

// spanName is one interned (stage, device) pair.
type spanName struct{ stage, dev string }

// Tracer accumulates lifecycle events into a bounded ring buffer with
// optional per-packet sampling. Memory is bounded by construction: once
// the ring is full, new events overwrite the oldest (the overwrite count
// is kept, so exporters can report truncation instead of silently
// pretending full coverage). The ring is not preallocated, because most
// pipelines never fill it: each block is allocated on first use, and
// nothing is ever copied.
type Tracer struct {
	capacity int
	// sampleEvery, when > 1, keeps only packets whose ID ≡ 0 (mod N);
	// device-level events are always kept. Aggregate metrics are not
	// affected — sampling bounds only the span stream.
	sampleEvery uint64

	// blocks hold ring slots [b·spanBlock, (b+1)·spanBlock); the last
	// block is trimmed to the capacity.
	blocks [][]spanRecord
	n      int // buffered records
	head   int // ring start when full
	seq    uint64

	names   []spanName
	nameIdx map[spanName]uint16

	// Overwritten counts events displaced from the full ring; SampledOut
	// counts events skipped by the sampling filter.
	Overwritten uint64
	SampledOut  uint64
}

// NewTracer returns a tracer with the given ring capacity (<= 0 uses
// DefaultTracerCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{capacity: capacity}
}

// SetSampling keeps only every n-th packet's events (by packet ID).
// n <= 1 disables sampling.
func (t *Tracer) SetSampling(n int) {
	if n <= 1 {
		t.sampleEvery = 0
		return
	}
	t.sampleEvery = uint64(n)
}

// intern returns the name-table index of (stage, dev), adding the pair on
// first use.
func (t *Tracer) intern(stage, dev string) uint16 {
	if t == nil {
		return 0
	}
	k := spanName{stage, dev}
	if i, ok := t.nameIdx[k]; ok {
		return i
	}
	if len(t.names) > math.MaxUint16 {
		panic(fmt.Sprintf("obs: tracer name table full: (stage %q, device %q) would be distinct pair %d, the limit is %d",
			stage, dev, len(t.names)+1, math.MaxUint16+1))
	}
	if t.nameIdx == nil {
		t.nameIdx = make(map[spanName]uint16)
	}
	i := uint16(len(t.names))
	t.names = append(t.names, k)
	t.nameIdx[k] = i
	return i
}

// add records one event under an interned name, writing it straight into
// its ring slot.
func (t *Tracer) add(kind EventKind, name uint16, id uint64, prio int, start, end sim.Time) {
	if t == nil {
		return
	}
	if t.sampleEvery > 1 && id != NoPacket && id%t.sampleEvery != 0 {
		t.SampledOut++
		return
	}
	pos := t.n
	if pos < t.capacity {
		if pos>>spanBlockShift == len(t.blocks) {
			t.blocks = append(t.blocks, make([]spanRecord, min(spanBlock, t.capacity-pos)))
		}
		t.n++
	} else {
		pos = t.head
		if t.head++; t.head == t.capacity {
			t.head = 0
		}
		t.Overwritten++
	}
	t.blocks[pos>>spanBlockShift][pos&spanBlockMask] = spanRecord{
		pkt: id, start: start, end: end, priority: int32(prio), name: name, kind: kind,
	}
	t.seq++
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int { return t.n }

// Total returns how many events were ever recorded (including ones since
// overwritten, excluding sampled-out ones).
func (t *Tracer) Total() uint64 { return t.seq }

// Events returns the buffered events in recording order.
func (t *Tracer) Events() []Event {
	return t.appendEvents(make([]Event, 0, t.n), 0)
}

// EventsSince returns the buffered events whose sequence number is at or
// past cursor, in recording order — the incremental-export counterpart of
// Events. Pass the previous call's Total() as the cursor to drain only
// what arrived since. Events that were overwritten in the ring before
// being drained are lost (the Overwritten counter reports how many); the
// live surface trades that bounded loss for bounded memory.
func (t *Tracer) EventsSince(cursor uint64) []Event {
	if t == nil || cursor >= t.seq {
		return nil
	}
	// The ring holds events with Seq in [t.seq-t.n, t.seq).
	oldest := t.seq - uint64(t.n)
	skip := 0
	if cursor > oldest {
		skip = int(cursor - oldest)
	}
	return t.appendEvents(make([]Event, 0, t.n-skip), skip)
}

// appendEvents appends the buffered events from ring-order index from
// onwards, restoring their sequence numbers and names.
func (t *Tracer) appendEvents(out []Event, from int) []Event {
	oldest := t.seq - uint64(t.n)
	for i := from; i < t.n; i++ {
		pos := t.head + i
		if pos >= t.capacity {
			pos -= t.capacity
		}
		r := &t.blocks[pos>>spanBlockShift][pos&spanBlockMask]
		nm := t.names[r.name]
		out = append(out, Event{
			Seq: oldest + uint64(i), Kind: r.kind, Stage: nm.stage, Device: nm.dev,
			Pkt: r.pkt, Priority: int(r.priority), Start: r.start, End: r.end,
		})
	}
	return out
}

// MergeEvents folds shard-local event streams into one, ordered by
// (time, stream index, per-stream sequence). Pass streams in shard ID
// order; the stream index breaks cross-shard timestamp ties the same way
// every run, so the merged stream is deterministic regardless of worker
// count — the same discipline as stats.MergeHistograms.
//
// A full sort (not a k-way merge) is required: within one engine, spans
// of a poll batch are emitted with start times ahead of the simulation
// clock (the core ledger runs ahead), while IRQ/DMA instants land at the
// current clock, so a single stream is not internally time-sorted.
func MergeEvents(streams ...[]Event) []Event {
	type keyed struct {
		ev     Event
		stream int
	}
	var all []keyed
	for si, s := range streams {
		for _, ev := range s {
			all = append(all, keyed{ev: ev, stream: si})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.Start != b.ev.Start {
			return a.ev.Start < b.ev.Start
		}
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.ev.Seq < b.ev.Seq
	})
	out := make([]Event, len(all))
	for i, k := range all {
		out[i] = k.ev
	}
	return out
}
