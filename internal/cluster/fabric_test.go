package cluster

import (
	"sync/atomic"
	"testing"

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
		s.link.Send(now, s.link.Lookahead, f)
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
	cfg := FabricConfig{}.withDefaults(2, sim.Microsecond)
	sw := newSwitch(g, "tor", 2, cfg.TorLatency, cfg, &snap)
	sink := g.Add("sink", sim.NewEngine(3))
	delivered := 0
	port := sw.addPort("tor->sink", g.Connect(sw.Shard, sink, cfg.HostLink, func(sim.Time, []byte) { delivered++ }), cfg.HostLink)
	sw.portFor = func(Route) *Port { return port }

	frame := func(dport uint16) []byte {
		return pkt.BuildUDPFrame(pkt.UDPFrameSpec{
			SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 2},
			SrcPort: CliPort(0), DstPort: dport, Payload: make([]byte, 18),
		})
	}
	hs := &hopSource{
		eng: src.Eng, period: 3 * sim.Microsecond,
		link:   g.Connect(src, sw.Shard, cfg.HostLink, sw.Receive),
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

// TestPortEvictsYoungestBestEffort pins the egress queue discipline on a
// full port: a high-priority arrival evicts the most recently queued
// best-effort frame, strict priority then serves the high class first,
// and best-effort frames leave in arrival order.
func TestPortEvictsYoungestBestEffort(t *testing.T) {
	g := par.NewGroup()
	var snap atomic.Pointer[Snapshot]
	cfg := FabricConfig{QueueCap: 3}.withDefaults(2, sim.Microsecond)
	sw := newSwitch(g, "tor", 1, cfg.TorLatency, cfg, &snap)
	sink := g.Add("sink", sim.NewEngine(2))
	var got []byte
	link := g.Connect(sw.Shard, sink, cfg.HostLink, func(_ sim.Time, f []byte) { got = append(got, f[0]) })
	p := sw.addPort("tor->sink", link, cfg.HostLink)

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
