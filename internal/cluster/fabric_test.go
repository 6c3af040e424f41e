package cluster

import (
	"sync/atomic"
	"testing"

	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// hopSource offers a burst of frames to a switch every period: two
// best-effort frames and one high-priority frame, so the egress port
// queues and serves both classes.
type hopSource struct {
	eng    *sim.Engine
	link   *par.Link
	period sim.Time
	frames [][]byte
}

func hopTick(now sim.Time, a1, _ any) {
	s := a1.(*hopSource)
	for _, f := range s.frames {
		s.link.Send(now, s.link.Lookahead, f, portOf(f))
	}
	s.eng.CallAt(now+s.period, hopTick, s, nil)
}

// TestSwitchHopZeroAlloc gates the fabric's forwarding path: once the
// egress rings, link buffers, event free lists and the switch's span ring
// have warmed up, Switch.Receive → enqueue → serialization → finishTx →
// Link.Send must not touch the heap.
func TestSwitchHopZeroAlloc(t *testing.T) {
	g := par.NewGroup()
	src := g.Add("src", sim.NewEngine(1))
	var snap atomic.Pointer[Snapshot]
	snap.Store(NewSnapshot(1, map[uint16]Route{
		SvcPort(0): {Host: 0},
		SvcPort(1): {Host: 0, Hi: true},
	}))
	cfg := FabricConfig{}.withDefaults(2)
	sw := newSwitch(g, "tor", 2, torLatency, cfg, &snap)
	sink := g.Add("sink", sim.NewEngine(3))
	delivered := 0
	port := sw.addPort("tor->sink", g.Connect(sw.Shard, sink, sim.Microsecond, func(sim.Time, []byte, uint32) { delivered++ }), sim.Microsecond)
	sw.portFor = func(Route) *Port { return port }

	frame := func(dport uint16) []byte {
		return pkt.BuildUDPFrame(pkt.UDPFrameSpec{
			SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 2},
			SrcPort: CliPort(0), DstPort: dport, Payload: make([]byte, 18),
		})
	}
	hs := &hopSource{
		eng: src.Eng, period: 3 * sim.Microsecond,
		link:   g.Connect(src, sw.Shard, sim.Microsecond, sw.Receive),
		frames: [][]byte{frame(SvcPort(0)), frame(SvcPort(0)), frame(SvcPort(1))},
	}
	src.Eng.CallAt(0, hopTick, hs, nil)

	// 150 ms forwards ~150k frames: past the switch's span-ring capacity,
	// so the ring has stopped growing.
	horizon := 150 * sim.Millisecond
	if err := g.Run(horizon, 1); err != nil {
		t.Fatal(err)
	}
	if port.Forwarded < 2*65536 || port.Dropped != 0 || sw.Unroutable != 0 {
		t.Fatalf("warmup forwarded %d, dropped %d, unroutable %d", port.Forwarded, port.Dropped, sw.Unroutable)
	}
	if avg := testing.AllocsPerRun(10, func() {
		horizon += sim.Millisecond
		if err := g.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("switch hop allocates: %.1f allocs per 1ms of virtual time", avg)
	}
	if uint64(delivered)+uint64(sw.inFlight())+uint64(port.link.Buffered()+sink.InboxLen()) != sw.RxFrames {
		t.Errorf("frames not conserved: rx %d, delivered %d, in switch %d", sw.RxFrames, delivered, sw.inFlight())
	}
}

// TestClusterEchoRoundTripZeroAlloc gates a whole fabric round trip: one
// high-priority echo whose request leaves host 1, crosses its ToR, the
// spine and host 0's ToR, and whose reply comes back the same way. The
// request is encoded into a buffer from host 1's wire list and ends in
// host 0's; the reply is copied into a buffer from host 0's list and ends
// in host 1's. Once the lists, span rings, link buffers, event free lists
// and histogram buckets have warmed up, a round trip must not touch the
// heap.
func TestClusterEchoRoundTripZeroAlloc(t *testing.T) {
	c, err := New(Config{
		Hosts:     2,
		Placement: PlaceSpread,
		Seed:      5,
		Host:      testHostSpec(),
		Specs:     []ContainerSpec{{Name: "echo", Hi: true, Rate: 20_000, Ingress: 1}},
		Fabric:    FabricConfig{Racks: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Assignment[0] != 0 || c.Spine == nil {
		t.Fatalf("echo on host %d, spine %v: the round trip must cross racks", c.Assignment[0], c.Spine)
	}
	// Small span rings wrap during the warm-up instead of growing through
	// the measurement.
	for _, p := range c.Pipes() {
		p.T = obs.NewTracer(1024)
	}
	horizon := 50 * sim.Millisecond
	if err := c.Run(horizon, 1); err != nil {
		t.Fatal(err)
	}
	pp := c.Flows[0].PP
	received := pp.Received
	if avg := testing.AllocsPerRun(10, func() {
		horizon += sim.Millisecond
		if err := c.Group.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("echo round trip allocates: %.1f allocs per 1ms of virtual time (~20 round trips)", avg)
	}
	if got := pp.Received - received; got < 11*19 {
		t.Errorf("%d replies in 11ms, want about 20 per ms", got)
	}
	if c.Spine.RxFrames == 0 {
		t.Error("no frame crossed the spine")
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

// TestPortEvictsYoungestBestEffort pins the egress queue discipline on a
// full port: a high-priority arrival evicts the most recently queued
// best-effort frame, strict priority then serves the high class first,
// and best-effort frames leave in arrival order.
func TestPortEvictsYoungestBestEffort(t *testing.T) {
	g := par.NewGroup()
	var snap atomic.Pointer[Snapshot]
	cfg := FabricConfig{queueCap: 3}.withDefaults(2)
	sw := newSwitch(g, "tor", 1, torLatency, cfg, &snap)
	sink := g.Add("sink", sim.NewEngine(2))
	var got []byte
	link := g.Connect(sw.Shard, sink, sim.Microsecond, func(_ sim.Time, f []byte, _ uint32) { got = append(got, f[0]) })
	p := sw.addPort("tor->sink", link, sim.Microsecond)

	sw.Shard.Eng.At(0, func() {
		// 'a' goes straight to the wire; b, c, d fill the queue; the
		// high-priority H evicts d, the youngest best-effort frame.
		for _, id := range []byte("abcd") {
			sw.enqueue(0, p, queued{frame: []byte{id}})
		}
		sw.enqueue(0, p, queued{frame: []byte{'H'}, hi: true})
		if sw.inFlight() != 4 || p.ShedLo != 1 || p.Dropped != 1 {
			t.Errorf("in switch %d, shed %d, dropped %d; want 4, 1, 1", sw.inFlight(), p.ShedLo, p.Dropped)
		}
	})
	if err := g.Run(sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aHbc" {
		t.Errorf("wire order %q, want \"aHbc\"", got)
	}
	if sw.inFlight() != 0 || p.Forwarded != 4 {
		t.Errorf("in switch %d, forwarded %d after drain", sw.inFlight(), p.Forwarded)
	}
}
