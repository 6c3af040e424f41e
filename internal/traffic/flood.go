package traffic

import (
	"prism/internal/overlay"
	"prism/internal/pkt"
	"prism/internal/sim"
	"prism/internal/socket"
	"prism/internal/stats"
)

// UDPFlood is the sockperf UDP throughput mode: open-loop background
// traffic at a configured average packet rate, emitted in short bursts as
// a real sender's syscall batching and the 100 GbE link deliver them.
type UDPFlood struct {
	Eng  *sim.Engine
	Host *overlay.Host

	// Target is the receiving container; nil targets the host socket.
	Target  *overlay.Container
	DstPort uint16
	Src     overlay.RemoteEndpoint

	// Rate is the average packets per second; Burst is how many frames
	// arrive back-to-back per emission (sender batching). Poisson draws
	// exponential inter-burst gaps — bursts then cluster, which is what a
	// real sender's scheduling jitter does and what builds the standing
	// queues behind Fig. 3's busy tail; JitterFrac applies instead when
	// Poisson is off.
	Rate       float64
	Burst      int
	PayloadLen int
	Poisson    bool
	JitterFrac float64

	// Inject, when set, replaces the default wire delivery with a
	// cross-shard hand-off, as on PingPong.Inject.
	Inject func(now, arrive sim.Time, frame []byte)

	// Delivered counts messages that reached the first-installed sink;
	// sinks holds every installed replica's counter (rehomed flows gain
	// one per migration — the old sink may still drain concurrently on
	// its crashed host's shard, so counters are never shared). Use
	// DeliveredCount for the flow's total.
	Delivered *stats.RateCounter
	sinks     []*stats.RateCounter
	Sent      uint64

	// frame is the wire frame, encoded once at the first burst: every
	// flood packet is byte-identical (zero payload, fixed flow), and the
	// NIC's DMA copies it, so one buffer serves the whole run.
	frame   []byte
	emitFn  func()
	stopped bool
}

// NewUDPFlood constructs a flood with the paper's defaults: small packets,
// bursts of 64 (one NAPI weight).
func NewUDPFlood(eng *sim.Engine, h *overlay.Host, target *overlay.Container,
	src overlay.RemoteEndpoint, dstPort uint16, rate float64) *UDPFlood {
	return &UDPFlood{
		Eng: eng, Host: h, Target: target, Src: src, DstPort: dstPort,
		Rate: rate, Burst: 64, PayloadLen: 64, Poisson: true, JitterFrac: 0.2,
		Delivered: stats.NewRateCounter("background-rx"),
	}
}

// InstallSink binds the receiving sockperf server: it just counts messages,
// charging perMsgCost on its application core. Each call installs a
// fresh replica sink on the current Target.
func (f *UDPFlood) InstallSink(perMsgCost sim.Time) error {
	sink := f.Delivered
	if len(f.sinks) > 0 {
		sink = stats.NewRateCounter("background-rx")
	}
	f.sinks = append(f.sinks, sink)
	app := socket.AppFunc{
		Cost: func(socket.Message) sim.Time { return perMsgCost },
		Fn: func(done sim.Time, m socket.Message) {
			sink.Add(done, 1, len(m.Payload))
		},
	}
	if f.Target != nil {
		_, err := f.Target.Bind(pkt.ProtoUDP, f.DstPort, app, 4096)
		return err
	}
	_, err := f.Host.BindHost(pkt.ProtoUDP, f.DstPort, app, 4096)
	return err
}

// Rehome migrates the flood's sink to a new container (a cluster
// recovery re-placement): the next burst re-encodes the wire frame for
// the new target, and a fresh sink replica counts deliveries there. The
// old replica stays bound on its crashed host. Call only while all
// shards are quiescent (a barrier).
func (f *UDPFlood) Rehome(target *overlay.Container, perMsgCost sim.Time) error {
	f.Target = target
	f.frame = nil
	return f.InstallSink(perMsgCost)
}

// DeliveredCount sums deliveries across every installed sink replica.
// Read only at quiescent points.
func (f *UDPFlood) DeliveredCount() uint64 {
	var n uint64
	for _, s := range f.sinks {
		n += s.Count()
	}
	return n
}

// Start schedules the first burst at time at.
func (f *UDPFlood) Start(at sim.Time) {
	if f.Rate <= 0 {
		return
	}
	f.emitFn = f.emitBurst
	f.Eng.At(at, f.emitFn)
}

// Stop ceases emission after the current burst.
func (f *UDPFlood) Stop() { f.stopped = true }

// injectFlood delivers one flood frame to the wire — a top-level function
// so the per-packet schedule (sim.CallAt) allocates nothing.
func injectFlood(at sim.Time, a1, _ any) {
	f := a1.(*UDPFlood)
	f.Host.InjectFromWire(at, f.frame)
}

func (f *UDPFlood) emitBurst() {
	if f.stopped {
		return
	}
	now := f.Eng.Now()
	if f.frame == nil {
		payload := zeros(f.PayloadLen)
		if f.Target != nil {
			f.frame = overlay.EncapToServer(f.Src, f.Target, f.DstPort, payload)
		} else {
			f.frame = overlay.HostUDPToServer(f.Src.Port, f.DstPort, payload)
		}
	}
	frame := f.frame
	ser := f.Host.Costs.Serialization(len(frame))
	arrive := now + f.Host.Costs.WireLatency
	for i := 0; i < f.Burst; i++ {
		at := arrive + sim.Time(i)*ser
		if f.Inject != nil {
			f.Inject(now, at, frame)
		} else {
			f.Eng.CallAt(at, injectFlood, f, nil)
		}
		f.Sent++
	}
	mean := sim.Time(float64(f.Burst) / f.Rate * float64(sim.Second))
	var gap sim.Time
	if f.Poisson {
		gap = f.Eng.RNG().ExpDuration(mean)
	} else {
		gap = mean
		if f.JitterFrac > 0 {
			gap += f.Eng.RNG().Jitter(sim.Time(float64(mean) * f.JitterFrac))
		}
	}
	if gap < 1 {
		gap = 1
	}
	if f.emitFn == nil {
		f.emitFn = f.emitBurst
	}
	f.Eng.At(now+gap, f.emitFn)
}

// TCPStream is the sockperf TCP throughput mode used as Fig. 13's
// background: large messages segmented at the MSS by the sender's egress
// stack (TSO), arriving as trains of MTU frames.
type TCPStream struct {
	Eng  *sim.Engine
	Host *overlay.Host

	Target  *overlay.Container
	DstPort uint16
	Src     overlay.RemoteEndpoint

	// MsgRate is messages per second; MsgSize bytes per message.
	MsgRate    float64
	MsgSize    int
	MSS        int
	JitterFrac float64

	// Inject, when set, replaces the default wire delivery with a
	// cross-shard hand-off, as on PingPong.Inject.
	Inject func(now, arrive sim.Time, frame []byte)

	// Delivered counts SKBs reaching the app; DeliveredBytes the payload.
	Delivered *stats.RateCounter
	SentPkts  uint64

	seq     uint32
	stopped bool

	// Segment frames live from encode until the NIC's DMA copy, so a
	// whole message's train is in flight at once; a free-list pool keeps
	// that from costing one heap frame per segment.
	pool   pkt.FramePool
	emitFn func()
}

// NewTCPStream constructs the Fig. 13 background: 64 KB messages.
func NewTCPStream(eng *sim.Engine, h *overlay.Host, target *overlay.Container,
	src overlay.RemoteEndpoint, dstPort uint16, msgRate float64) *TCPStream {
	return &TCPStream{
		Eng: eng, Host: h, Target: target, Src: src, DstPort: dstPort,
		MsgRate: msgRate, MsgSize: 64 * 1024,
		MSS:        pkt.MTU - pkt.IPv4HeaderLen - pkt.TCPHeaderLen,
		JitterFrac: 0.2,
		Delivered:  stats.NewRateCounter("tcp-background-rx"),
	}
}

// InstallSink binds the TCP sink app charging perSKBCost per delivered SKB.
func (t *TCPStream) InstallSink(perSKBCost sim.Time) error {
	app := socket.AppFunc{
		Cost: func(socket.Message) sim.Time { return perSKBCost },
		Fn: func(done sim.Time, m socket.Message) {
			t.Delivered.Add(done, 1, len(m.Payload))
		},
	}
	if t.Target != nil {
		_, err := t.Target.Bind(pkt.ProtoTCP, t.DstPort, app, 8192)
		return err
	}
	_, err := t.Host.BindHost(pkt.ProtoTCP, t.DstPort, app, 8192)
	return err
}

// Start schedules the first message at time at.
func (t *TCPStream) Start(at sim.Time) {
	if t.MsgRate <= 0 {
		return
	}
	t.emitFn = t.emitMessage
	t.Eng.At(at, t.emitFn)
}

// Stop ceases emission after the current message.
func (t *TCPStream) Stop() { t.stopped = true }

// injectStreamFrame hands one pooled TCP segment to the wire and returns
// the buffer; the NIC's DMA has copied it by the time InjectFromWire
// returns, so the release is safe. Top-level for sim.CallAt.
func injectStreamFrame(at sim.Time, a1, a2 any) {
	t := a1.(*TCPStream)
	buf := a2.(*pkt.Frame)
	t.Host.InjectFromWire(at, buf.B)
	buf.Release()
}

// encode writes the next segment, carrying size zero bytes, into buf's
// backing array when it has the capacity, allocating only on overflow.
func (t *TCPStream) encode(buf []byte, size int) []byte {
	if t.Target != nil {
		return overlay.EncapTCPToServerInto(buf, t.Src, t.Target, t.DstPort, t.seq, zeros(size))
	}
	return pkt.AppendTCPFrame(buf, pkt.TCPFrameSpec{
		SrcMAC: overlay.ClientMAC, DstMAC: overlay.ServerMAC,
		SrcIP: overlay.ClientIP, DstIP: overlay.ServerIP,
		SrcPort: t.Src.Port, DstPort: t.DstPort, Seq: t.seq,
		Flags: pkt.TCPAck | pkt.TCPPsh, Payload: zeros(size),
	})
}

func (t *TCPStream) emitMessage() {
	if t.stopped {
		return
	}
	now := t.Eng.Now()
	segments := (t.MsgSize + t.MSS - 1) / t.MSS
	arrive := now + t.Host.Costs.WireLatency
	for i := 0; i < segments; i++ {
		size := t.MSS
		if i == segments-1 {
			size = t.MsgSize - i*t.MSS
		}
		if t.Inject != nil {
			// The hook may keep the frame, so it gets its own.
			frame := t.encode(nil, size)
			t.seq += uint32(size)
			arrive += t.Host.Costs.Serialization(len(frame))
			t.Inject(now, arrive, frame)
		} else {
			n := pkt.TCPFrameOverhead + size
			if t.Target != nil {
				n += pkt.VXLANOverhead
			}
			buf := t.pool.Get(n)
			buf.B = t.encode(buf.B, size)
			t.seq += uint32(size)
			arrive += t.Host.Costs.Serialization(len(buf.B))
			t.Eng.CallAt(arrive, injectStreamFrame, t, buf)
		}
		t.SentPkts++
	}
	gap := sim.Time(float64(sim.Second) / t.MsgRate)
	if t.JitterFrac > 0 {
		gap += t.Eng.RNG().Jitter(sim.Time(float64(gap) * t.JitterFrac))
	}
	if gap < 1 {
		gap = 1
	}
	if t.emitFn == nil {
		t.emitFn = t.emitMessage
	}
	t.Eng.At(now+gap, t.emitFn)
}
