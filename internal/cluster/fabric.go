package cluster

import (
	"sync/atomic"

	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/pkt"
	"prism/internal/ring"
	"prism/internal/sim"
)

// The fabric is a two-tier Clos: every host uplinks to its rack's ToR,
// ToRs interconnect through one spine. Switches are output-queued with
// strict-priority scheduling at each egress port — the same discipline
// the paper applies inside the host, extended to the network — and each
// switch runs on its own par shard, so inter-switch and switch↔host hops
// ride cross-shard links whose lookahead is the cable's propagation
// delay.

// Fabric timings and sizes. Every link's propagation delay is its
// cross-shard lookahead; a host↔ToR cable takes the host cost model's
// WireLatency, since generators compute arrival with it and a link
// cannot deliver faster than its lookahead.
const (
	// torLatency / spineLatency are per-switch forwarding latencies
	// (port-to-port cut-through minimum).
	torLatency   = 600 * sim.Nanosecond
	spineLatency = sim.Microsecond
	// spineLink is the ToR↔spine cable propagation delay.
	spineLink = 4 * sim.Microsecond
	// lineGbps is every link's line rate, for serialization delay.
	lineGbps = 100
	// portQueueCap bounds each egress port's queue (frames, both classes
	// combined). Arrivals beyond it tail-drop, except that a
	// high-priority arrival evicts the youngest queued best-effort frame
	// instead — the fabric analogue of the host shed policy.
	portQueueCap = 1024
)

// FabricConfig sizes the switching fabric.
type FabricConfig struct {
	// Racks is the number of ToR switches; hosts are assigned to racks
	// round-robin by ID block. 0 derives ceil(hosts/8).
	Racks int

	// linkGbps and queueCap replace lineGbps and portQueueCap when
	// nonzero; tests shrink them to overflow a port.
	linkGbps float64
	queueCap int
}

func (c FabricConfig) withDefaults(hosts int) FabricConfig {
	if c.Racks <= 0 {
		c.Racks = (hosts + 7) / 8
	}
	if c.Racks > hosts {
		c.Racks = hosts
	}
	if c.linkGbps <= 0 {
		c.linkGbps = lineGbps
	}
	if c.queueCap <= 0 {
		c.queueCap = portQueueCap
	}
	return c
}

// serialization returns the time to clock a frame onto a link.
func (c FabricConfig) serialization(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / c.linkGbps)
}

// queued is one frame waiting at an egress port, with the route tag it
// travels with.
type queued struct {
	frame   []byte
	tag     uint32
	hi      bool
	arrived sim.Time
}

// Port is one switch egress: a two-class queue feeding a cross-shard
// link, serialized at line rate, strict priority across classes.
type Port struct {
	Name string
	link *par.Link
	prop sim.Time
	// obs is the port's fabric handle on the owning switch's pipeline.
	obs *obs.Stage

	hi, lo ring.FIFO[queued]
	// tx is the frame being serialized while busy: a port clocks out one
	// frame at a time, so the transmit-done event needs no other state.
	tx   queued
	busy bool
	cap  int
	// down marks the link severed (ToR-uplink failure): queued frames
	// are flushed and arrivals drop until it restores. Mutated only from
	// the owning switch's shard (exact-time events) or at barriers (the
	// recovery controller mirroring the remote end).
	down bool

	// Forwarded counts frames put on the wire; Dropped counts every
	// discard at this port (tail drops plus shed victims plus link-down
	// losses); ShedLo is the subset evicted to admit a high-priority
	// frame; DownDropped the subset lost to a severed link.
	Forwarded   uint64
	Dropped     uint64
	ShedLo      uint64
	DownDropped uint64

	// busyNs accumulates transmit occupancy since winStart, for the
	// utilization report.
	busyNs   sim.Time
	winStart sim.Time
}

func (p *Port) depth() int { return p.hi.Len() + p.lo.Len() }

// Queued reports frames currently waiting at the port (excluding the one
// being serialized).
func (p *Port) Queued() int { return p.depth() }

// Busy reports whether a frame is on the wire right now.
func (p *Port) Busy() bool { return p.busy }

// Utilization is the port's transmit occupancy since the last window
// reset.
func (p *Port) Utilization(now sim.Time) float64 {
	if now <= p.winStart {
		return 0
	}
	return float64(p.busyNs) / float64(now-p.winStart)
}

// Switch is one ToR or spine: look the frame's route key up in the
// control-plane snapshot, pick the egress port, queue, serialize,
// forward. It lives on its own shard; Receive runs in event context on
// that shard.
type Switch struct {
	Name  string
	Shard *par.Shard
	Pipe  *obs.Pipeline

	cfg     FabricConfig
	latency sim.Time
	// snap points at the cluster's shared atomic routing snapshot;
	// recovery swaps the snapshot at barrier epochs and every switch
	// observes the new version from the next window on.
	snap *atomic.Pointer[Snapshot]
	// portFor maps a route to the egress port (downlink for local
	// destinations, uplink toward the next tier).
	portFor func(Route) *Port
	Ports   []*Port

	// RxFrames counts arrivals; Unroutable counts frames whose route key
	// (the inner destination port) has no snapshot entry.
	RxFrames   uint64
	Unroutable uint64
	seq        uint64
	// lost counts the owned frames this switch dropped. A switch shard
	// owns no wire buffer list, so it leaves them to the GC.
	lost uint64
}

func newSwitch(g *par.Group, name string, seed uint64, latency sim.Time, cfg FabricConfig, snap *atomic.Pointer[Snapshot]) *Switch {
	sw := &Switch{
		Name:    name,
		Pipe:    obs.NewPipeline(name),
		cfg:     cfg,
		latency: latency,
		snap:    snap,
	}
	sw.Shard = g.Add(name, sim.NewEngine(seed))
	return sw
}

// addPort attaches an egress link to the switch.
func (s *Switch) addPort(name string, link *par.Link, prop sim.Time) *Port {
	p := &Port{Name: name, link: link, prop: prop, cap: s.cfg.queueCap, obs: s.Pipe.Bind(name, obs.StageFabric)}
	s.Ports = append(s.Ports, p)
	return p
}

// noPort is the route key of a frame whose inner flow does not parse: it
// lies outside the uint16 port space, so no snapshot routes it.
const noPort = uint32(1 << 16)

// ownedFrame flags a route tag whose frame is a wire buffer the sending
// node Got from its list: the node that terminates the frame Puts it into
// its own list. Flood frames are one shared template per flow and travel
// without it. The tag's other bits are the route key.
const ownedFrame = uint32(1 << 31)

// portOf is a wire frame's route key: the destination port of its inner
// flow, the globally unique flow identity (container IPs repeat across
// hosts, ports never do), or noPort. A host computes it once, where it
// hands the frame to its uplink, and the frame carries it through the
// fabric, so no hop parses the frame again.
func portOf(frame []byte) uint32 {
	_, fl, err := pkt.InnerFlow(frame)
	if err != nil {
		return noPort
	}
	return uint32(fl.DstPort)
}

// route resolves a carried route tag's key against the current
// snapshot. The lookup runs at every hop, so a snapshot swap reroutes
// frames in flight.
func route(snap *Snapshot, tag uint32) (Route, bool) {
	port := tag &^ ownedFrame
	if port == noPort {
		return Route{}, false
	}
	return snap.Lookup(uint16(port))
}

// Receive handles one frame arriving at the switch at time at with its
// route tag (event context on the switch's shard).
func (s *Switch) Receive(at sim.Time, frame []byte, tag uint32) {
	s.RxFrames++
	rt, ok := route(s.snap.Load(), tag)
	if !ok {
		s.Unroutable++
		s.lose(tag)
		s.Pipe.FabricDrop(at, s.Name, "unroutable", 0)
		return
	}
	s.enqueue(at, s.portFor(rt), queued{frame: frame, tag: tag, hi: rt.Hi, arrived: at})
}

// lose accounts a dropped frame's buffer: an owned one is left to the GC.
func (s *Switch) lose(tag uint32) {
	if tag&ownedFrame != 0 {
		s.lost++
	}
}

func (s *Switch) enqueue(now sim.Time, p *Port, q queued) {
	prio := 0
	if q.hi {
		prio = 1
	}
	if p.down {
		p.Dropped++
		p.DownDropped++
		s.lose(q.tag)
		s.Pipe.FabricDrop(now, p.Name, "link-down", prio)
		return
	}
	if p.depth() >= p.cap {
		if q.hi && p.lo.Len() > 0 {
			// Evict the youngest best-effort frame: the oldest is
			// closest to transmission and dropping it wastes the most
			// queueing work.
			s.lose(p.lo.PopBack().tag)
			p.ShedLo++
			p.Dropped++
			s.Pipe.FabricDrop(now, p.Name, "shed", 0)
		} else {
			p.Dropped++
			s.lose(q.tag)
			s.Pipe.FabricDrop(now, p.Name, "queue-full", prio)
			return
		}
	}
	if q.hi {
		p.hi.Push(q)
	} else {
		p.lo.Push(q)
	}
	if !p.busy {
		s.startTx(now, p)
	}
}

// startTx dequeues strict-priority and occupies the port for the switch
// latency plus the frame's serialization time.
func (s *Switch) startTx(now sim.Time, p *Port) {
	switch {
	case p.hi.Len() > 0:
		p.tx = p.hi.Pop()
	case p.lo.Len() > 0:
		p.tx = p.lo.Pop()
	default:
		return
	}
	p.busy = true
	done := now + s.latency + s.cfg.serialization(len(p.tx.frame))
	p.busyNs += done - now
	s.Shard.Eng.CallAt(done, txDone, s, p)
}

// txDone is the top-level trampoline the transmit-done event dispatches
// through (a1 the *Switch, a2 the *Port): pointer arguments and no
// capturing closure, so forwarding a frame allocates nothing.
func txDone(done sim.Time, sw, port any) { sw.(*Switch).finishTx(done, port.(*Port)) }

func (s *Switch) finishTx(done sim.Time, p *Port) {
	q := p.tx
	p.tx = queued{}
	prio := 0
	if q.hi {
		prio = 1
	}
	p.obs.Fabric(s.seq, prio, q.arrived, done)
	s.seq++
	p.link.Send(done, p.prop, q.frame, q.tag)
	p.Forwarded++
	p.busy = false
	if p.depth() > 0 {
		s.startTx(done, p)
	}
}

// setPortDown flips a port's link state. Going down flushes the queue —
// every waiting frame is a link-down loss — while a frame already in
// serialization finishes (it is on the wire). The restore never needs to
// resume transmission: arrivals drop while the link is down, so the
// queue is empty by construction — which is what lets the recovery
// controller call this at barriers (mutating quiescent state) without
// ever scheduling an event. Call from the switch's own shard in event
// context, or from a barrier while all shards are quiescent.
func (s *Switch) setPortDown(now sim.Time, p *Port, down bool) {
	if p == nil || p.down == down {
		return
	}
	p.down = down
	if !down {
		return
	}
	flushed := p.depth()
	for i := 0; i < p.hi.Len(); i++ {
		s.lose(p.hi.At(i).tag)
		s.Pipe.FabricDrop(now, p.Name, "link-down", 1)
	}
	for i := 0; i < p.lo.Len(); i++ {
		s.lose(p.lo.At(i).tag)
		s.Pipe.FabricDrop(now, p.Name, "link-down", 0)
	}
	p.hi.Clear()
	p.lo.Clear()
	p.Dropped += uint64(flushed)
	p.DownDropped += uint64(flushed)
}

// resetWindow restarts the utilization accounting at time at (scheduled
// on the switch's own engine at the end of warmup).
func (s *Switch) resetWindow(at sim.Time) {
	for _, p := range s.Ports {
		p.busyNs = 0
		p.winStart = at
	}
}

// inFlight counts frames inside this switch: queued at a port or
// currently being serialized.
func (s *Switch) inFlight() int {
	n := 0
	for _, p := range s.Ports {
		n += p.depth()
		if p.busy {
			n++
		}
	}
	return n
}

// ownedInFlight counts the owned frames inside this switch.
func (s *Switch) ownedInFlight() int {
	n := 0
	for _, p := range s.Ports {
		n += ownedIn(&p.hi) + ownedIn(&p.lo)
		if p.busy && p.tx.tag&ownedFrame != 0 {
			n++
		}
	}
	return n
}

func ownedIn(q *ring.FIFO[queued]) int {
	n := 0
	for i := 0; i < q.Len(); i++ {
		if q.At(i).tag&ownedFrame != 0 {
			n++
		}
	}
	return n
}

// forwarded sums the frames the switch put on its wires.
func (s *Switch) forwarded() uint64 {
	var n uint64
	for _, p := range s.Ports {
		n += p.Forwarded
	}
	return n
}

// dropped sums the switch's discards (port drops plus unroutable).
func (s *Switch) dropped() uint64 {
	n := s.Unroutable
	for _, p := range s.Ports {
		n += p.Dropped
	}
	return n
}
