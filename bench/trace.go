package main

import (
	"time"

	"prism/internal/netdev"
	"prism/internal/overlay"
	"prism/internal/par"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// The traced rep times calls into each layer from outside: it wraps the
// public netdev.Device.Handler field of every NIC, bridge and backlog
// device, wraps the netdev.Sink each handler returns, and takes over the
// generators' public Inject hook so each wire arrival is a timed call to
// Host.InjectFromWire. The wrappers schedule and return exactly what the
// wrapped code does, so the traced rep's digest must equal the untraced
// reps'.

// Layer indices, in pipeline order.
const (
	layerDMA = iota
	layerNICRx
	layerBridge
	layerVeth
	layerSocket
	numLayers
)

// layerNames are the metric prefixes of the timed layers.
var layerNames = [numLayers]string{"nic.dma", "nic.rx", "bridge", "veth", "socket"}

// epoch anchors the layer clocks' readings: time.Since on a time with a
// monotonic reading reads one clock, where time.Now reads two.
var epoch = time.Now()

func mono() time.Duration { return time.Since(epoch) }

// clock accumulates the wall time spent inside one layer's entry point.
type clock struct {
	calls uint64
	ns    time.Duration
}

func (c *clock) since(t0 time.Duration) {
	c.calls++
	c.ns += mono() - t0
}

// hostClocks is one host's set of layer clocks. Cluster hosts run on
// separate shard goroutines, so each host owns its accumulators and they
// are summed only after the run.
type hostClocks struct {
	host   *overlay.Host
	layers [numLayers]clock
	// sinks caches one timed wrapper per socket, so wrapping a delivery
	// allocates nothing after the socket's first packet.
	sinks map[netdev.Sink]netdev.Sink
	// lastFrame and lastBoxed cache the interface boxing of the most
	// recent injected frame: the flood re-sends one buffer, and boxing it
	// anew for every packet would add an allocation per packet.
	lastFrame []byte
	lastBoxed any
}

type timedHandler struct {
	inner netdev.Handler
	clk   *clock
	hc    *hostClocks
}

func (h *timedHandler) HandlePacket(now sim.Time, skb *pkt.SKB) netdev.Result {
	t0 := mono()
	res := h.inner.HandlePacket(now, skb)
	h.clk.since(t0)
	if res.Sink != nil {
		res.Sink = h.hc.sink(res.Sink)
	}
	return res
}

type timedSink struct {
	inner netdev.Sink
	clk   *clock
}

func (s *timedSink) DeliverSKB(at sim.Time, skb *pkt.SKB) {
	t0 := mono()
	s.inner.DeliverSKB(at, skb)
	s.clk.since(t0)
}

func (hc *hostClocks) sink(inner netdev.Sink) netdev.Sink {
	ts, ok := hc.sinks[inner]
	if !ok {
		ts = &timedSink{inner: inner, clk: &hc.layers[layerSocket]}
		hc.sinks[inner] = ts
	}
	return ts
}

// traceInject is the traced wire delivery: a top-level sim.CallAt
// trampoline, because a capturing closure per packet doubled the traced
// run time.
func traceInject(at sim.Time, a1, a2 any) {
	hc := a1.(*hostClocks)
	t0 := mono()
	hc.host.InjectFromWire(at, a2.([]byte))
	hc.layers[layerDMA].since(t0)
}

// inject is the generators' Inject hook. It schedules the arrival on the
// host's engine exactly as the generators' default path does.
func (hc *hostClocks) inject(_, arrive sim.Time, frame []byte) {
	if len(frame) == 0 || len(hc.lastFrame) != len(frame) || &hc.lastFrame[0] != &frame[0] {
		hc.lastFrame, hc.lastBoxed = frame, frame
	}
	hc.host.Eng.CallAt(arrive, traceInject, hc, hc.lastBoxed)
}

func (hc *hostClocks) wrap(dev *netdev.Device, layer int) {
	dev.Handler = &timedHandler{inner: dev.Handler, clk: &hc.layers[layer], hc: hc}
}

// tracer instruments one instance for the traced rep.
type tracer struct {
	hosts []*hostClocks
	// windows and idle count par windows and, summed over windows, the
	// shards that executed no event in them.
	shards     []*par.Shard
	lastExec   []uint64
	windows    uint64
	idleShards uint64
}

// instrument installs the timing wrappers; call it after set-up and
// before the run.
func instrument(in *instance) *tracer {
	tr := &tracer{}
	for _, h := range in.hosts {
		hc := &hostClocks{host: h, sinks: make(map[netdev.Sink]netdev.Sink)}
		for q := range h.NICs {
			hc.wrap(h.NICs[q].Dev, layerNICRx)
			hc.wrap(h.BridgeCells[q].Dev, layerBridge)
			hc.wrap(h.Backlogs[q].Dev, layerVeth)
		}
		tr.hosts = append(tr.hosts, hc)
	}
	// Only single-host instances list injects, so hosts[0] is their host.
	for _, hook := range in.injects {
		*hook = tr.hosts[0].inject
	}
	if g := in.group; g != nil {
		tr.shards = g.Shards()
		tr.lastExec = make([]uint64, len(tr.shards))
		for i, s := range tr.shards {
			tr.lastExec[i] = s.Eng.Executed
		}
		prev := g.OnBarrier
		g.OnBarrier = func(end sim.Time) {
			if prev != nil {
				prev(end)
			}
			tr.barrier()
		}
	}
	return tr
}

// barrier runs on the par coordinator with every shard parked: a shard
// whose executed-event count did not move sat the window out.
func (tr *tracer) barrier() {
	tr.windows++
	for i, s := range tr.shards {
		if s.Eng.Executed == tr.lastExec[i] {
			tr.idleShards++
		}
		tr.lastExec[i] = s.Eng.Executed
	}
}

// layerTimes is the traced rep's per-layer result.
type layerTimes struct {
	calls [numLayers]uint64
	ns    [numLayers]int64
	// idleShardFrac is idle shard-windows over all shard-windows.
	idleShardFrac float64
}

func (tr *tracer) finish() *layerTimes {
	lt := &layerTimes{}
	for _, hc := range tr.hosts {
		for l := range hc.layers {
			lt.calls[l] += hc.layers[l].calls
			lt.ns[l] += int64(hc.layers[l].ns)
		}
	}
	if tr.windows > 0 {
		lt.idleShardFrac = float64(tr.idleShards) / float64(tr.windows*uint64(len(tr.shards)))
	}
	return lt
}

// clockCost measures the part of a pair of clock reads that lands inside
// the timed interval: the per-call bias every layer time carries.
// It is the smallest batch mean of several batches, to drop preemption.
func clockCost() float64 {
	const batch = 200_000
	best := 0.0
	for b := 0; b < 5; b++ {
		var sum time.Duration
		for i := 0; i < batch; i++ {
			t0 := mono()
			sum += mono() - t0
		}
		if mean := float64(sum) / batch; b == 0 || mean < best {
			best = mean
		}
	}
	return best
}
