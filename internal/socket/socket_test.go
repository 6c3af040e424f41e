package socket

import (
	"testing"

	"prism/internal/cpu"
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sched"
	"prism/internal/sim"
)

func newThread(eng *sim.Engine) *sched.Thread {
	return sched.NewThread("app", eng, cpu.NewCore(1, nil), 1000)
}

func TestBindAndLookup(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("ctr0")
	th := newThread(eng)
	s, err := tbl.Bind(pkt.ProtoUDP, 5000, th, AppFunc{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Lookup(pkt.ProtoUDP, 5000) != s {
		t.Error("Lookup missed bound socket")
	}
	if tbl.Lookup(pkt.ProtoTCP, 5000) != nil {
		t.Error("Lookup crossed protocols")
	}
	if tbl.Lookup(pkt.ProtoUDP, 5001) != nil {
		t.Error("Lookup crossed ports")
	}
	if _, err := tbl.Bind(pkt.ProtoUDP, 5000, th, AppFunc{}, 0); err == nil {
		t.Error("double bind succeeded")
	}
}

func TestDeliverRunsAppWithCost(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("ctr0")
	th := newThread(eng)
	var got Message
	var doneAt sim.Time
	app := AppFunc{
		Cost: func(m Message) sim.Time { return 500 },
		Fn:   func(done sim.Time, m Message) { got, doneAt = m, done },
	}
	s, err := tbl.Bind(pkt.ProtoUDP, 7, th, app, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng.At(100, func() {
		s.Deliver(100, Message{Payload: []byte("x"), Delivered: 100})
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 100 + wakeup 1000 + cost 500.
	if doneAt != 1600 {
		t.Errorf("app done at %v, want 1600", doneAt)
	}
	if string(got.Payload) != "x" {
		t.Errorf("payload = %q", got.Payload)
	}
	if s.Receivd != 1 {
		t.Errorf("Receivd = %d", s.Receivd)
	}
}

func TestDeliverOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("ctr0")
	th := newThread(eng)
	app := AppFunc{Cost: func(Message) sim.Time { return 1000 }}
	s, err := tbl.Bind(pkt.ProtoUDP, 7, th, app, 2)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	eng.At(0, func() {
		for i := 0; i < 5; i++ {
			if s.Deliver(0, Message{}) {
				accepted++
			}
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if accepted != 2 {
		t.Errorf("accepted %d, want 2 (rcvbuf cap)", accepted)
	}
	if s.Drops != 3 {
		t.Errorf("Drops = %d, want 3", s.Drops)
	}
}

func TestDeliverUnboundedWhenCapZero(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("ctr0")
	th := newThread(eng)
	s, _ := tbl.Bind(pkt.ProtoUDP, 7, th, AppFunc{}, 0)
	eng.At(0, func() {
		for i := 0; i < 100; i++ {
			if !s.Deliver(0, Message{}) {
				t.Error("unbounded socket dropped")
			}
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func buildSKB(t *testing.T, dstPort uint16) *pkt.SKB {
	t.Helper()
	frame := pkt.BuildUDPFrame(pkt.UDPFrameSpec{
		SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
		SrcIP: pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(10, 0, 0, 2),
		SrcPort: 9999, DstPort: dstPort, Payload: []byte("payload"),
	})
	flow, err := pkt.ParseFlow(frame)
	if err != nil {
		t.Fatal(err)
	}
	return &pkt.SKB{Data: frame, Flow: flow, Arrived: 42}
}

func TestDeliverToTable(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("host")
	th := newThread(eng)
	var got Message
	app := AppFunc{Fn: func(done sim.Time, m Message) { got = m }}
	if _, err := tbl.Bind(pkt.ProtoUDP, 5555, th, app, 0); err != nil {
		t.Fatal(err)
	}
	skb := buildSKB(t, 5555)
	res := DeliverToTable(tbl, 700, skb)
	if res.Verdict != netdev.VerdictDeliver || res.Cost != 700 {
		t.Fatalf("result = %+v", res)
	}
	if res.Sink == nil {
		t.Fatal("deliver result has no sink")
	}
	eng.At(1000, func() { res.Sink.DeliverSKB(1000, skb) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "payload" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Delivered != 1000 || got.Arrived != 42 {
		t.Errorf("timestamps = %v/%v", got.Arrived, got.Delivered)
	}
}

func TestDeliverToTableNoListener(t *testing.T) {
	res := DeliverToTable(NewTable("host"), 700, buildSKB(t, 1234))
	if res.Verdict != netdev.VerdictDrop {
		t.Errorf("verdict = %v, want drop", res.Verdict)
	}
	if res := DeliverToTable(nil, 700, buildSKB(t, 1)); res.Verdict != netdev.VerdictDrop {
		t.Errorf("nil table verdict = %v, want drop", res.Verdict)
	}
}

func TestDeliverToTableBadPayload(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("host")
	th := newThread(eng)
	if _, err := tbl.Bind(pkt.ProtoUDP, 5555, th, AppFunc{}, 0); err != nil {
		t.Fatal(err)
	}
	skb := buildSKB(t, 5555)
	skb.Data = skb.Data[:20] // truncated frame
	// Flow key still cached; payload extraction must fail cleanly.
	if res := DeliverToTable(tbl, 700, skb); res.Verdict != netdev.VerdictDrop {
		t.Errorf("verdict = %v, want drop for truncated frame", res.Verdict)
	}
}

// shortTCPSKB carries a TCP frame whose IPv4 total length (30) ends
// inside its TCP header under a valid checksum: ParseFlow accepts it, so
// stage 1 would stamp it, but it has no payload to deliver.
func shortTCPSKB(t *testing.T, dstPort uint16) *pkt.SKB {
	t.Helper()
	frame := pkt.BuildTCPFrame(pkt.TCPFrameSpec{
		SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
		SrcIP: pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(10, 0, 0, 2),
		SrcPort: 9999, DstPort: dstPort, Flags: pkt.TCPAck, Payload: []byte("payload"),
	})
	pkt.PutIPv4(frame[pkt.EthHeaderLen:], pkt.IPv4Header{
		TotalLen: 30, TTL: 64, Protocol: pkt.ProtoTCP,
		Src: pkt.Addr(10, 0, 0, 1), Dst: pkt.Addr(10, 0, 0, 2),
	})
	flow, err := pkt.ParseFlow(frame)
	if err != nil {
		t.Fatal(err)
	}
	return &pkt.SKB{Data: frame, Flow: flow}
}

// TestDeliverToTableShortTCPDrops pins the regression where payload
// extraction panicked on such a frame: stamped or not, delivery drops it.
func TestDeliverToTableShortTCPDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("host")
	if _, err := tbl.Bind(pkt.ProtoTCP, 5201, newThread(eng), AppFunc{}, 0); err != nil {
		t.Fatal(err)
	}
	for _, parsed := range []bool{false, true} {
		skb := shortTCPSKB(t, 5201)
		skb.Parsed = parsed
		if res := DeliverToTable(tbl, 700, skb); res.Verdict != netdev.VerdictDrop {
			t.Errorf("parsed=%v: verdict = %v, want drop", parsed, res.Verdict)
		}
	}
}

// TestDeliverToTableStampedTrustsHeaders pins both sides of the stamp:
// an unstamped SKB with a bad IPv4 checksum is dropped, and the same
// bytes stamped by stage 1 are delivered without validating the header
// again.
func TestDeliverToTableStampedTrustsHeaders(t *testing.T) {
	eng := sim.NewEngine(1)
	tbl := NewTable("host")
	var got []string
	app := AppFunc{Fn: func(_ sim.Time, m Message) { got = append(got, string(m.Payload)) }}
	if _, err := tbl.Bind(pkt.ProtoUDP, 5555, newThread(eng), app, 0); err != nil {
		t.Fatal(err)
	}
	bad := buildSKB(t, 5555)
	bad.Data[pkt.EthHeaderLen+10] ^= 0xff // IPv4 header checksum
	if res := DeliverToTable(tbl, 700, bad); res.Verdict != netdev.VerdictDrop {
		t.Errorf("unstamped bad checksum: verdict = %v, want drop", res.Verdict)
	}
	bad.Parsed = true
	res := DeliverToTable(tbl, 700, bad)
	if res.Verdict != netdev.VerdictDeliver {
		t.Fatalf("stamped: verdict = %v, want deliver", res.Verdict)
	}
	eng.At(1000, func() { res.Sink.DeliverSKB(1000, bad) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "payload" {
		t.Errorf("stamped payloads = %q", got)
	}
}
