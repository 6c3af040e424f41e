package overlay

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"prism/internal/cpu"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/socket"
)

func newTestHost(t *testing.T, mode prio.Mode) (*sim.Engine, *Host) {
	t.Helper()
	eng := sim.NewEngine(7)
	h := NewHost(eng, Config{Mode: mode, CStates: cpu.C1, AppCStates: cpu.C1})
	return eng, h
}

type recorder struct {
	msgs []socket.Message
}

func (r *recorder) ProcessingCost(socket.Message) sim.Time { return 1000 }
func (r *recorder) OnMessage(done sim.Time, m socket.Message) {
	// Payload is valid only during OnMessage; keep a copy.
	m.Payload = bytes.Clone(m.Payload)
	r.msgs = append(r.msgs, m)
}

func TestEndToEndOverlayDelivery(t *testing.T) {
	for _, mode := range []prio.Mode{prio.ModeVanilla, prio.ModeBatch, prio.ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, h := newTestHost(t, mode)
			ctr := h.AddContainer("srv")
			rec := &recorder{}
			if _, err := ctr.Bind(pkt.ProtoUDP, 11211, rec, 0); err != nil {
				t.Fatal(err)
			}
			client := ClientContainer(0, 40000)
			eng.At(0, func() {
				for i := 0; i < 10; i++ {
					h.InjectFromWire(eng.Now(), EncapToServer(client, ctr, 11211, []byte("hello")))
				}
			})
			if err := eng.Run(10 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if len(rec.msgs) != 10 {
				t.Fatalf("app received %d messages, want 10", len(rec.msgs))
			}
			for _, m := range rec.msgs {
				if string(m.Payload) != "hello" {
					t.Errorf("payload = %q", m.Payload)
				}
				if m.From.SrcIP != client.IP || m.From.DstPort != 11211 {
					t.Errorf("flow = %v", m.From)
				}
				if m.Delivered <= m.Arrived {
					t.Errorf("timestamps not ordered: %v %v", m.Arrived, m.Delivered)
				}
			}
			st := h.Rx.Stats()
			if st.Delivered != 10 {
				t.Errorf("engine delivered = %d", st.Delivered)
			}
			// Every packet crossed all three devices.
			if h.NIC.Dev.Processed != 10 || h.Bridge.Dev.Processed != 10 || h.Backlog.Dev.Processed != 10 {
				t.Errorf("per-device processed = %d/%d/%d",
					h.NIC.Dev.Processed, h.Bridge.Dev.Processed, h.Backlog.Dev.Processed)
			}
		})
	}
}

func TestHighPriorityClassificationEndToEnd(t *testing.T) {
	eng, h := newTestHost(t, prio.ModeBatch)
	ctr := h.AddContainer("srv")
	rec := &recorder{}
	if _, err := ctr.Bind(pkt.ProtoUDP, 11211, rec, 0); err != nil {
		t.Fatal(err)
	}
	h.DB.Add(prio.Rule{IP: ctr.IP, Port: 11211})
	client := ClientContainer(0, 40000)
	eng.At(0, func() {
		h.InjectFromWire(0, EncapToServer(client, ctr, 11211, []byte("hi")))
	})
	if err := eng.Run(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rec.msgs) != 1 || !rec.msgs[0].HighPriority {
		t.Fatalf("msgs = %+v", rec.msgs)
	}
}

func TestContainerReplyReachesRemote(t *testing.T) {
	eng, h := newTestHost(t, prio.ModeVanilla)
	ctr := h.AddContainer("srv")
	client := ClientContainer(0, 40000)

	var replies [][]byte
	var replyAt sim.Time
	h.AttachRemote(func(now sim.Time, frame []byte) {
		vni, inner, err := pkt.Decapsulate(frame)
		if err != nil {
			t.Errorf("reply not VXLAN: %v", err)
			return
		}
		if vni != VNI {
			t.Errorf("reply VNI = %d", vni)
		}
		p, err := pkt.TransportPayload(inner)
		if err != nil {
			t.Errorf("reply payload: %v", err)
			return
		}
		replies = append(replies, bytes.Clone(p)) // the frame is lent for this call only
		replyAt = now
	})

	echo := socket.AppFunc{
		Cost: func(socket.Message) sim.Time { return 500 },
		Fn: func(done sim.Time, m socket.Message) {
			ctr.SendUDP(done, client, 11211, m.Payload)
		},
	}
	if _, err := ctr.Bind(pkt.ProtoUDP, 11211, echo, 0); err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() {
		h.InjectFromWire(0, EncapToServer(client, ctr, 11211, []byte("ping")))
	})
	if err := eng.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || string(replies[0]) != "ping" {
		t.Fatalf("replies = %q", replies)
	}
	if replyAt <= 0 {
		t.Error("reply timestamp missing")
	}
	if h.TxFrames != 1 {
		t.Errorf("TxFrames = %d", h.TxFrames)
	}
}

func TestHostNetworkPath(t *testing.T) {
	eng, h := newTestHost(t, prio.ModeVanilla)
	rec := &recorder{}
	if _, err := h.BindHost(pkt.ProtoUDP, 8080, rec, 0); err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() {
		h.InjectFromWire(0, HostUDPToServer(5000, 8080, []byte("direct")))
	})
	if err := eng.Run(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rec.msgs) != 1 || string(rec.msgs[0].Payload) != "direct" {
		t.Fatalf("msgs = %+v", rec.msgs)
	}
	// Single-stage: bridge and veth untouched.
	if h.Bridge.Dev.Processed != 0 {
		t.Errorf("bridge processed %d on host path", h.Bridge.Dev.Processed)
	}
}

func TestHostReplyPath(t *testing.T) {
	eng, h := newTestHost(t, prio.ModeVanilla)
	var got []byte
	h.AttachRemote(func(now sim.Time, frame []byte) {
		p, err := pkt.TransportPayload(frame)
		if err != nil {
			t.Errorf("host reply: %v", err)
			return
		}
		got = bytes.Clone(p) // the frame is lent for this call only
	})
	echo := socket.AppFunc{Fn: func(done sim.Time, m socket.Message) {
		h.SendHostUDP(done, m.From.SrcPort, 8080, []byte("pong"))
	}}
	if _, err := h.BindHost(pkt.ProtoUDP, 8080, echo, 0); err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { h.InjectFromWire(0, HostUDPToServer(5000, 8080, []byte("ping"))) })
	if err := eng.Run(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pong" {
		t.Fatalf("reply = %q", got)
	}
}

func TestMultipleContainersIsolated(t *testing.T) {
	eng, h := newTestHost(t, prio.ModeVanilla)
	a := h.AddContainer("a")
	b := h.AddContainer("b")
	if a.IP == b.IP || a.MAC == b.MAC {
		t.Fatal("containers share addresses")
	}
	recA, recB := &recorder{}, &recorder{}
	if _, err := a.Bind(pkt.ProtoUDP, 7000, recA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Bind(pkt.ProtoUDP, 7000, recB, 0); err != nil {
		t.Fatal(err)
	}
	client := ClientContainer(0, 4000)
	eng.At(0, func() {
		h.InjectFromWire(0, EncapToServer(client, a, 7000, []byte("to-a")))
		h.InjectFromWire(0, EncapToServer(client, b, 7000, []byte("to-b")))
	})
	if err := eng.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(recA.msgs) != 1 || string(recA.msgs[0].Payload) != "to-a" {
		t.Errorf("container a msgs = %+v", recA.msgs)
	}
	if len(recB.msgs) != 1 || string(recB.msgs[0].Payload) != "to-b" {
		t.Errorf("container b msgs = %+v", recB.msgs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHost(eng, Config{})
	if h.Mode != prio.ModeVanilla {
		t.Errorf("default mode = %v", h.Mode)
	}
	if h.Costs == nil {
		t.Error("costs not defaulted")
	}
	if h.DB.Mode() != prio.ModeVanilla {
		t.Error("db mode mismatch")
	}
}

func TestPrismSyncEndToEndBeatsVanillaOnBurst(t *testing.T) {
	// Sanity integration check of the paper's headline mechanism: with a
	// burst of low-priority traffic ahead of one high-priority packet,
	// PRISM-sync delivers the high-priority packet far sooner than vanilla.
	deliver := func(mode prio.Mode) sim.Time {
		eng, h := newTestHost(t, mode)
		ctrHi := h.AddContainer("hi")
		ctrLo := h.AddContainer("lo")
		recHi, recLo := &recorder{}, &recorder{}
		if _, err := ctrHi.Bind(pkt.ProtoUDP, 11211, recHi, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ctrLo.Bind(pkt.ProtoUDP, 5001, recLo, 0); err != nil {
			t.Fatal(err)
		}
		h.DB.Add(prio.Rule{IP: ctrHi.IP, Port: 11211})
		cl := ClientContainer(0, 4000)
		eng.At(0, func() {
			for i := 0; i < 256; i++ {
				h.InjectFromWire(0, EncapToServer(cl, ctrLo, 5001, make([]byte, 64)))
			}
			h.InjectFromWire(0, EncapToServer(cl, ctrHi, 11211, make([]byte, 64)))
		})
		if err := eng.Run(50 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(recHi.msgs) != 1 {
			t.Fatalf("%v: high-prio msgs = %d", mode, len(recHi.msgs))
		}
		if len(recLo.msgs) != 256 {
			t.Fatalf("%v: low-prio msgs = %d", mode, len(recLo.msgs))
		}
		return recHi.msgs[0].Delivered
	}
	van := deliver(prio.ModeVanilla)
	syn := deliver(prio.ModeSync)
	// Behind a single cold burst the stage-1 FIFO dominates both modes
	// (the ring cannot be reordered, §IV-D); PRISM must still save the
	// bridge and veth queueing, i.e. at least a couple of batch times.
	// The paper's >50% steady-state cut is validated by the Fig. 9
	// experiment harness, not here.
	if syn >= van-50*sim.Microsecond {
		t.Errorf("sync delivery %v, want at least 50µs earlier than vanilla %v", syn, van)
	}
}

func TestRSSSteeringMultiQueue(t *testing.T) {
	eng := sim.NewEngine(7)
	h := NewHost(eng, Config{Mode: prio.ModeVanilla, RxQueues: 4, CStates: cpu.C1, AppCStates: cpu.C1})
	if len(h.NICs) != 4 || len(h.ProcCores) != 4 || len(h.Backlogs) != 4 {
		t.Fatalf("queues = %d/%d/%d", len(h.NICs), len(h.ProcCores), len(h.Backlogs))
	}
	ctr := h.AddContainer("srv")
	rec := &recorder{}
	if _, err := ctr.Bind(pkt.ProtoUDP, 9000, rec, 0); err != nil {
		t.Fatal(err)
	}
	// Many distinct flows (different client source ports => different
	// VXLAN entropy ports) must spread across queues; each single flow
	// must stay on one queue (no reordering within a flow).
	eng.At(0, func() {
		for flowIdx := 0; flowIdx < 16; flowIdx++ {
			cl := ClientContainer(flowIdx, uint16(40000+flowIdx))
			for i := 0; i < 8; i++ {
				h.InjectFromWire(0, EncapToServer(cl, ctr, 9000, []byte{byte(flowIdx), byte(i)}))
			}
		}
	})
	if err := eng.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rec.msgs) != 16*8 {
		t.Fatalf("delivered %d, want 128", len(rec.msgs))
	}
	used := 0
	for _, n := range h.NICs {
		if n.DMAd > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("flows used %d of 4 queues; RSS not spreading", used)
	}
	// Per-flow FIFO survives multi-queue (a flow maps to one queue).
	lastSeq := map[uint16]byte{}
	for _, m := range rec.msgs {
		flow := m.From.SrcPort
		seq := m.Payload[1]
		if last, ok := lastSeq[flow]; ok && seq <= last {
			t.Fatalf("flow %d reordered: %d after %d", flow, seq, last)
		}
		lastSeq[flow] = seq
	}
}

func TestMultiQueueScalesThroughput(t *testing.T) {
	// Aggregate delivery rate under overload must grow with RX queues when
	// the offered flows spread across them.
	run := func(queues int) float64 {
		eng := sim.NewEngine(7)
		h := NewHost(eng, Config{Mode: prio.ModeVanilla, RxQueues: queues, CStates: cpu.C1, AppCStates: cpu.C1})
		ctr := h.AddContainer("srv")
		delivered := 0
		app := socket.AppFunc{Fn: func(_ sim.Time, _ socket.Message) { delivered++ }}
		if _, err := ctr.Bind(pkt.ProtoUDP, 9000, app, 0); err != nil {
			t.Fatal(err)
		}
		// 8 flows, each overloading: total offered ~1.6x single-core cap
		// per flow set.
		for f := 0; f < 8; f++ {
			cl := ClientContainer(f, uint16(41000+f))
			f := f
			var emit func()
			emit = func() {
				now := eng.Now()
				for i := 0; i < 32; i++ {
					h.InjectFromWire(now, EncapToServer(cl, ctr, 9000, make([]byte, 64)))
				}
				_ = f
				eng.At(now+200*sim.Microsecond, emit) // 160 kpps per flow
			}
			eng.At(0, emit)
		}
		if err := eng.Run(100 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return float64(delivered) / 0.1
	}
	one := run(1)
	four := run(4)
	if four < one*2 {
		t.Errorf("4-queue rate %.0f pps not ≥ 2x single-queue %.0f pps", four, one)
	}
}

// TestEgressBuffersReturnToPool checks the egress ownership rule: every
// sender's pooled frame goes back to the host's tx pool once the wire
// hand-off returns, whether a remote receiver, a WireTx hook or nobody
// takes it, and the borrowed bytes are the reply the app sent.
func TestEgressBuffersReturnToPool(t *testing.T) {
	for _, sink := range []string{"remote", "wiretx", "none"} {
		t.Run(sink, func(t *testing.T) {
			eng, h := newTestHost(t, prio.ModeVanilla)
			ctr := h.AddContainer("srv")
			client := ClientContainer(0, 40000)
			var got []string
			keep := func(frame []byte) {
				inner := frame
				if pkt.IsVXLAN(frame) {
					_, inner, _ = pkt.Decapsulate(frame)
				}
				p, err := pkt.TransportPayload(inner)
				if err != nil {
					t.Errorf("reply: %v", err)
					return
				}
				got = append(got, string(p))
			}
			switch sink {
			case "remote":
				h.AttachRemote(func(_ sim.Time, frame []byte) { keep(frame) })
			case "wiretx":
				h.WireTx = func(_, _ sim.Time, frame []byte) { keep(frame) }
			}
			eng.At(0, func() {
				ctr.SendUDP(0, client, 11211, []byte("udp"))
				ctr.SendTCP(0, client, 11211, 1, []byte("tcp"))
				h.SendHostUDP(0, 5000, 8080, []byte("host"))
			})
			if err := eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if h.TxFrames != 3 {
				t.Errorf("TxFrames = %d, want 3", h.TxFrames)
			}
			if n := h.txPool.Outstanding(); n != 0 {
				t.Errorf("%d egress buffers outstanding after the drain", n)
			}
			// The host thread and the container's thread finish in either
			// order, so compare the set.
			sort.Strings(got)
			if want := []string{"host", "tcp", "udp"}; sink != "none" && strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("replies = %q, want %q", got, want)
			}
		})
	}
}
