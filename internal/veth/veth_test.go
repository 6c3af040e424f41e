package veth

import (
	"testing"

	"prism/internal/cpu"
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sched"
	"prism/internal/sim"
	"prism/internal/socket"
)

var (
	ctrMAC = pkt.MAC{0x02, 0x42, 0, 0, 0, 2}
	ctrIP  = pkt.Addr(172, 17, 0, 2)
	srcMAC = pkt.MAC{0x02, 0x42, 0, 0, 0, 3}
	srcIP  = pkt.Addr(172, 17, 0, 3)
)

func newVeth(t *testing.T, eng *sim.Engine) (*Veth, *socket.Table, *[]socket.Message) {
	t.Helper()
	tbl := socket.NewTable("ctr0")
	th := sched.NewThread("app", eng, cpu.NewCore(1, nil), 0)
	var got []socket.Message
	app := socket.AppFunc{Fn: func(done sim.Time, m socket.Message) { got = append(got, m) }}
	if _, err := tbl.Bind(pkt.ProtoUDP, 11211, th, app, 0); err != nil {
		t.Fatal(err)
	}
	return New("veth0", netdev.DefaultCosts(), ctrMAC, ctrIP, tbl), tbl, &got
}

func frame(t *testing.T, dstMAC pkt.MAC, dstPort uint16) *pkt.SKB {
	t.Helper()
	f := pkt.BuildUDPFrame(pkt.UDPFrameSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC, SrcIP: srcIP, DstIP: ctrIP,
		SrcPort: 999, DstPort: dstPort, Payload: []byte("req"),
	})
	flow, err := pkt.ParseFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return &pkt.SKB{Data: f, Flow: flow}
}

func TestVethDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	v, _, got := newVeth(t, eng)
	skb := frame(t, ctrMAC, 11211)
	res := v.handle(0, skb)
	if res.Verdict != netdev.VerdictDeliver {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	eng.At(100, func() { res.Sink.DeliverSKB(100, skb) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || string((*got)[0].Payload) != "req" {
		t.Fatalf("messages = %+v", got)
	}
}

func TestVethRejectsForeignMAC(t *testing.T) {
	eng := sim.NewEngine(1)
	v, _, _ := newVeth(t, eng)
	res := v.handle(0, frame(t, pkt.MAC{9, 9, 9, 9, 9, 9}, 11211))
	if res.Verdict != netdev.VerdictDrop {
		t.Errorf("verdict = %v", res.Verdict)
	}
	if v.Misaddressed != 1 {
		t.Errorf("Misaddressed = %d", v.Misaddressed)
	}
}

func TestVethNoListenerDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	v, _, _ := newVeth(t, eng)
	if res := v.handle(0, frame(t, ctrMAC, 4444)); res.Verdict != netdev.VerdictDrop {
		t.Errorf("verdict = %v", res.Verdict)
	}
}

func TestVethGarbageDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	v, _, _ := newVeth(t, eng)
	if res := v.handle(0, &pkt.SKB{Data: []byte{1, 2}}); res.Verdict != netdev.VerdictDrop {
		t.Errorf("verdict = %v", res.Verdict)
	}
	// Corrupt IP header under a valid Ethernet header.
	s := frame(t, ctrMAC, 11211)
	s.Data[pkt.EthHeaderLen] = 0x55 // bad version/IHL
	if res := v.handle(0, s); res.Verdict != netdev.VerdictDrop {
		t.Errorf("bad-ip verdict = %v", res.Verdict)
	}
}

func TestVethQueueCapMatchesBacklogDefault(t *testing.T) {
	eng := sim.NewEngine(1)
	v, _, _ := newVeth(t, eng)
	if v.Dev.LowQ.Cap() != 1000 {
		t.Errorf("backlog cap = %d, want 1000 (netdev_max_backlog)", v.Dev.LowQ.Cap())
	}
	if v.Dev.Kind != netdev.DriverBacklog {
		t.Errorf("kind = %v", v.Dev.Kind)
	}
}

func TestBacklogServesMultipleEndpoints(t *testing.T) {
	eng := sim.NewEngine(1)
	costs := netdev.DefaultCosts()
	b := NewBacklog("veth0", costs)

	mk := func(name string, mac pkt.MAC, ip pkt.IPv4) *[]socket.Message {
		tbl := socket.NewTable(name)
		th := sched.NewThread(name, eng, cpu.NewCore(1, nil), 0)
		var got []socket.Message
		app := socket.AppFunc{Fn: func(_ sim.Time, m socket.Message) { got = append(got, m) }}
		if _, err := tbl.Bind(pkt.ProtoUDP, 9000, th, app, 0); err != nil {
			t.Fatal(err)
		}
		b.Register(mac, ip, tbl)
		return &got
	}
	macB2 := pkt.MAC{0x02, 0x42, 0, 0, 0, 9}
	ipB2 := pkt.Addr(172, 17, 0, 9)
	gotA := mk("a", ctrMAC, ctrIP)
	gotB := mk("b", macB2, ipB2)

	deliver := func(dst pkt.MAC, dstIP pkt.IPv4, payload string) (netdev.Result, *pkt.SKB) {
		f := pkt.BuildUDPFrame(pkt.UDPFrameSpec{
			SrcMAC: srcMAC, DstMAC: dst, SrcIP: srcIP, DstIP: dstIP,
			SrcPort: 5, DstPort: 9000, Payload: []byte(payload),
		})
		flow, err := pkt.ParseFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		skb := &pkt.SKB{Data: f, Flow: flow}
		return b.handle(0, skb), skb
	}

	resA, skbA := deliver(ctrMAC, ctrIP, "for-a")
	resB, skbB := deliver(macB2, ipB2, "for-b")
	if resA.Verdict != netdev.VerdictDeliver || resB.Verdict != netdev.VerdictDeliver {
		t.Fatalf("verdicts = %v/%v", resA.Verdict, resB.Verdict)
	}
	eng.At(10, func() { resA.Sink.DeliverSKB(10, skbA); resB.Sink.DeliverSKB(10, skbB) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*gotA) != 1 || string((*gotA)[0].Payload) != "for-a" {
		t.Errorf("endpoint a got %+v", gotA)
	}
	if len(*gotB) != 1 || string((*gotB)[0].Payload) != "for-b" {
		t.Errorf("endpoint b got %+v", gotB)
	}

	// Unknown MAC counts as misaddressed.
	if res, _ := deliver(pkt.MAC{9, 9, 9, 9, 9, 9}, ctrIP, "x"); res.Verdict != netdev.VerdictDrop {
		t.Errorf("unknown MAC verdict = %v", res.Verdict)
	}
	if b.Misaddressed != 1 {
		t.Errorf("Misaddressed = %d", b.Misaddressed)
	}
	// Garbage frame drops cleanly.
	if res := b.handle(0, &pkt.SKB{Data: []byte{1}}); res.Verdict != netdev.VerdictDrop {
		t.Errorf("garbage verdict = %v", res.Verdict)
	}
}

// TestVethStampSkipsIPv4Validation pins both sides of stage 1's stamp: a
// hand-built, unstamped SKB whose IPv4 checksum is bad is still dropped
// by the veth stage and by the shared backlog (their delivery validates
// it in full), while the same bytes stamped Parsed are trusted and
// delivered.
func TestVethStampSkipsIPv4Validation(t *testing.T) {
	eng := sim.NewEngine(1)
	v, tbl, _ := newVeth(t, eng)
	b := NewBacklog("backlog0", netdev.DefaultCosts())
	b.Register(ctrMAC, ctrIP, tbl)
	stages := []struct {
		name   string
		handle func(sim.Time, *pkt.SKB) netdev.Result
	}{{"veth", v.handle}, {"backlog", b.handle}}
	for _, st := range stages {
		skb := frame(t, ctrMAC, 11211)
		skb.Data[pkt.EthHeaderLen+10] ^= 0xff // IPv4 header checksum
		if res := st.handle(0, skb); res.Verdict != netdev.VerdictDrop {
			t.Errorf("%s: unstamped bad checksum verdict = %v, want drop", st.name, res.Verdict)
		}
		skb.Parsed = true
		if res := st.handle(0, skb); res.Verdict != netdev.VerdictDeliver {
			t.Errorf("%s: stamped verdict = %v, want deliver", st.name, res.Verdict)
		}
		// The MAC check still runs on a stamped SKB.
		foreign := frame(t, pkt.MAC{9, 9, 9, 9, 9, 9}, 11211)
		foreign.Parsed = true
		if res := st.handle(0, foreign); res.Verdict != netdev.VerdictDrop {
			t.Errorf("%s: stamped foreign MAC verdict = %v, want drop", st.name, res.Verdict)
		}
	}
}
