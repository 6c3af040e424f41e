package traffic

import (
	"prism/internal/overlay"
	"prism/internal/pkt"
	"prism/internal/sim"
	"prism/internal/socket"
	"prism/internal/stats"
)

// PingPong is the sockperf under-load latency flow: requests at a constant
// rate with an embedded (sequence, send-timestamp) probe; the server echoes
// and per-packet latency is computed as RTT/2, exactly as sockperf reports.
type PingPong struct {
	Eng  *sim.Engine
	Host *overlay.Host

	// Target selects the server endpoint: a container (overlay path) or,
	// if nil, the host network socket at DstPort.
	Target  *overlay.Container
	DstPort uint16
	// Src identifies the client container (or host port when Target nil).
	Src overlay.RemoteEndpoint

	// Rate is requests per second; Poisson selects exponential gaps.
	Rate    float64
	Poisson bool

	PayloadLen int

	ClientTx sim.Time
	ClientRx sim.Time
	// Warmup discards samples whose request was sent before this time.
	Warmup sim.Time

	// Inject, when set, replaces the default wire delivery (an event on
	// Eng calling Host.InjectFromWire): the generator hands each request
	// frame with its departure and computed arrival time to the hook.
	// The multi-host cluster routes it over the fabric, so the generator
	// can run on its ingress host's shard while the target runs elsewhere.
	// Each request is encoded into a buffer from Wire, which then belongs
	// to the hook: it may keep it (a deferred delivery holds it until
	// arrival) or Put it into a wire buffer list once the frame is done.
	// The default path instead recycles one pooled buffer per request in
	// flight, because InjectFromWire only borrows the bytes.
	Inject func(now, arrive sim.Time, frame []byte)
	// Wire is the list the Inject path takes request buffers from. The
	// multi-host cluster passes its ingress node's list, which the nodes
	// that terminate the frames refill; nil gets a private list on the
	// first send.
	Wire *pkt.WireBufs

	// OnSample, when set, observes every post-warmup latency sample in
	// delivery order, keyed by the probe sequence number — the per-flow
	// delivered sequence the determinism tests compare.
	OnSample func(seq uint64, lat sim.Time)

	// Hist records per-packet latency (RTT/2), the value sockperf reports.
	Hist *stats.Histogram
	// KernelHist records the server-side in-kernel residence (NIC ring to
	// socket buffer) of each request — the part of the path PRISM
	// modifies, free of client-side and reverse-path constants.
	KernelHist *stats.Histogram

	Sent     uint64
	Received uint64

	// homes are the installed echo replicas, in install order. After a
	// cluster migration the old replica keeps draining its host's
	// internally queued requests while the new one serves live traffic —
	// possibly concurrently on different shards — so each home owns its
	// counters and readers sum them at quiescent points.
	homes []*echoHome

	// pool recycles the default wire path's request frames; it is made on
	// the first such send, so flows on the Inject path carry none.
	pool    *pkt.FramePool
	sendFn  func()
	stopped bool
}

// echoHome is one installed echo replica's private state. The first
// home's kernel histogram is the flow's KernelHist; later homes record
// into their own (merging live histograms across shards would race).
type echoHome struct {
	served uint64
	kernel *stats.Histogram
}

// NewPingPong constructs the flow with defaults filled in.
func NewPingPong(eng *sim.Engine, h *overlay.Host, target *overlay.Container,
	src overlay.RemoteEndpoint, dstPort uint16, rate float64) *PingPong {
	return &PingPong{
		Eng: eng, Host: h, Target: target, Src: src, DstPort: dstPort,
		Rate: rate, PayloadLen: 64,
		ClientTx: DefaultClientTx, ClientRx: DefaultClientRx,
		Hist:       stats.NewHistogram(),
		KernelHist: stats.NewHistogram(),
	}
}

// InstallEcho binds the echo server app with the given per-request CPU
// cost, the sockperf server analogue. Each call installs a fresh
// replica (home) on the current Target; the first call is the normal
// single-server case.
func (p *PingPong) InstallEcho(appCost sim.Time) error {
	home := &echoHome{kernel: p.KernelHist}
	if len(p.homes) > 0 {
		home.kernel = stats.NewHistogram()
	}
	p.homes = append(p.homes, home)
	if p.Target != nil {
		ctr, src, dstPort := p.Target, p.Src, p.DstPort
		app := socket.AppFunc{
			Cost: func(socket.Message) sim.Time { return appCost },
			Fn: func(done sim.Time, m socket.Message) {
				home.served++
				p.recordKernel(home, m)
				ctr.SendUDP(done, src, dstPort, m.Payload)
			},
		}
		_, err := ctr.Bind(pkt.ProtoUDP, p.DstPort, app, 4096)
		return err
	}
	h, dstPort := p.Host, p.DstPort
	app := socket.AppFunc{
		Cost: func(socket.Message) sim.Time { return appCost },
		Fn: func(done sim.Time, m socket.Message) {
			home.served++
			p.recordKernel(home, m)
			h.SendHostUDP(done, m.From.SrcPort, dstPort, m.Payload)
		},
	}
	_, err := h.BindHost(pkt.ProtoUDP, p.DstPort, app, 4096)
	return err
}

// Rehome migrates the flow's server endpoint to a new container (a
// cluster recovery re-placement) and installs a fresh echo replica
// there. The old replica stays bound — its crashed host keeps draining
// internal queues — while the generator encodes the new target from its
// next send on. Call only while all shards are quiescent (a barrier).
func (p *PingPong) Rehome(target *overlay.Container, appCost sim.Time) error {
	p.Target = target
	return p.InstallEcho(appCost)
}

// Served sums requests served across every installed replica. Homes on
// different shards update concurrently, so read only at quiescent
// points.
func (p *PingPong) Served() uint64 {
	var n uint64
	for _, h := range p.homes {
		n += h.served
	}
	return n
}

func (p *PingPong) recordKernel(home *echoHome, m socket.Message) {
	if m.Arrived < p.Warmup {
		return
	}
	home.kernel.Record(m.Delivered - m.Arrived)
}

// Start registers the reply handler and schedules the first request at
// time at. The flow runs until Stop or the simulation horizon.
func (p *PingPong) Start(client *Client, at sim.Time) {
	client.Register(p.Src.Port, p.onReply)
	p.sendFn = p.sendNext
	p.Eng.At(at, p.sendFn)
}

// Stop ceases sending after the current request.
func (p *PingPong) Stop() { p.stopped = true }

func (p *PingPong) interval() sim.Time {
	mean := sim.Time(float64(sim.Second) / p.Rate)
	if p.Poisson {
		return p.Eng.RNG().ExpDuration(mean)
	}
	return mean
}

// encode writes the next request, carrying a zero payload, into buf's
// backing array when it has the capacity, allocating only on overflow.
func (p *PingPong) encode(buf []byte) []byte {
	if p.Target != nil {
		return overlay.EncapToServerInto(buf, p.Src, p.Target, p.DstPort, zeros(p.PayloadLen))
	}
	return overlay.HostUDPToServerInto(buf, p.Src.Port, p.DstPort, zeros(p.PayloadLen))
}

// injectPing delivers one pooled request to the wire and releases its
// buffer: InjectFromWire has copied the bytes by the time it returns.
// Top-level for sim.CallAt.
func injectPing(at sim.Time, a1, a2 any) {
	p, buf := a1.(*PingPong), a2.(*pkt.Frame)
	p.Host.InjectFromWire(at, buf.B)
	buf.Release()
}

func (p *PingPong) sendNext() {
	if p.stopped {
		return
	}
	now := p.Eng.Now()
	var buf *pkt.Frame
	var frame []byte
	n := pkt.UDPFrameOverhead + p.PayloadLen
	if p.Target != nil {
		n += pkt.VXLANOverhead
	}
	if p.Inject != nil {
		if p.Wire == nil {
			p.Wire = new(pkt.WireBufs)
		}
		frame = p.encode(p.Wire.Get(n))
	} else {
		if p.pool == nil {
			p.pool = new(pkt.FramePool)
		}
		buf = p.pool.Get(n)
		buf.B = p.encode(buf.B)
		frame = buf.B
	}
	pkt.PutProbe(frame[len(frame)-p.PayloadLen:], p.Sent, now)
	p.Sent++

	arrive := now + p.ClientTx + p.Host.Costs.WireLatency + p.Host.Costs.Serialization(len(frame))
	if buf == nil {
		p.Inject(now, arrive, frame)
	} else {
		p.Eng.CallAt(arrive, injectPing, p, buf)
	}
	p.Eng.At(now+p.interval(), p.sendFn)
}

func (p *PingPong) onReply(now sim.Time, payload []byte, _ pkt.FlowKey) {
	seq, sentAt, err := pkt.ParseProbe(payload)
	if err != nil {
		return
	}
	p.Received++
	if sentAt < p.Warmup {
		return
	}
	rtt := now + p.ClientRx - sentAt
	p.Hist.Record(rtt / 2)
	if p.OnSample != nil {
		p.OnSample(seq, rtt/2)
	}
}
