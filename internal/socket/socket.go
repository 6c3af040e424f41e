// Package socket models the kernel/user boundary: per-network-namespace
// socket tables, bounded receive buffers, and the handoff from softirq
// delivery to an application thread.
package socket

import (
	"fmt"

	"prism/internal/obs"
	"prism/internal/pkt"
	"prism/internal/sched"
	"prism/internal/sim"
)

// Message is one datagram (or request chunk) as seen by the application.
type Message struct {
	Payload []byte
	From    pkt.FlowKey // the flow key of the packet that carried it
	// Arrived is when the frame hit the NIC ring; Delivered is when the
	// softirq copied it into the socket buffer.
	Arrived   sim.Time
	Delivered sim.Time
	// HighPriority echoes the SKB's PRISM classification, for assertions.
	HighPriority bool
}

// App consumes messages from a socket. ProcessingCost is charged on the
// application thread per message before OnMessage runs.
type App interface {
	// ProcessingCost returns the CPU the app spends on this message.
	ProcessingCost(m Message) sim.Time
	// OnMessage runs at processing completion on the app thread.
	OnMessage(done sim.Time, m Message)
}

// Socket is a bound endpoint with a bounded receive buffer drained by an
// application thread.
type Socket struct {
	Proto uint16 // pkt.ProtoUDP or pkt.ProtoTCP (uint16 to match bind keys)
	Port  uint16

	Thread *sched.Thread
	app    App
	tbl    *Table // owning table, for delivery observability

	// RecvCap bounds the receive buffer in messages; beyond it packets are
	// dropped (rcvbuf overflow) — visible in /proc/net/udp as drops.
	RecvCap int

	// pending is the receive buffer: a head-indexed FIFO of messages
	// waiting for the app thread, each with the pooled frame backing its
	// payload (released after OnMessage returns). The backing array is
	// reused across messages, so a steady-state socket never allocates.
	pending []pendingMsg
	head    int

	queued  int
	Drops   uint64
	Receivd uint64
}

type pendingMsg struct {
	m Message
	f *pkt.Frame
}

// Deliver hands a message from softirq context to the socket: it charges
// nothing on the processing core (the copy cost is part of the stage cost)
// and schedules the app thread. It reports false on rcvbuf overflow.
func (s *Socket) Deliver(now sim.Time, m Message) bool { return s.push(now, m, nil) }

// DeliverSKB implements netdev.Sink: the softirq hands the packet over at
// its completion time, transferring SKB ownership. The frame buffer backs
// the message payload until OnMessage returns; the SKB itself is freed
// here.
func (s *Socket) DeliverSKB(at sim.Time, skb *pkt.SKB) {
	payload := skb.Payload
	if payload == nil {
		var err error
		payload, err = pkt.TransportPayload(skb.Data)
		if err != nil {
			// The handler validated the frame before returning VerdictDeliver;
			// failing now means the bytes changed in flight (use-after-put).
			panic("socket: payload vanished between handler and delivery: " + err.Error())
		}
	}
	m := Message{
		Payload:      payload,
		From:         skb.Flow,
		Arrived:      skb.Arrived,
		Delivered:    at,
		HighPriority: skb.HighPriority,
	}
	// Free resets the SKB, wait cursor included: read it first.
	id, prio, cur := skb.ID, skb.Priority, skb.Wait
	f := skb.TakeFrame()
	skb.Free()
	ok := s.push(at, m, f)
	t := s.tbl
	if t == nil || t.Obs == nil {
		return
	}
	if ok {
		t.Obs.Bound(&t.obsDeliver, t.Name, obs.StageSocket).Deliver(at, id, prio, m.Arrived, &cur)
	} else {
		t.Obs.Drop(at, t.Name, obs.StageSocket, id, prio, &cur)
	}
}

func (s *Socket) push(now sim.Time, m Message, f *pkt.Frame) bool {
	if s.RecvCap > 0 && s.queued >= s.RecvCap {
		s.Drops++
		if f != nil {
			f.Release()
		}
		return false
	}
	s.queued++
	s.Receivd++
	if s.head > 0 && s.head == len(s.pending) {
		// Drained: rewind so append reuses the backing array.
		s.pending = s.pending[:0]
		s.head = 0
	}
	s.pending = append(s.pending, pendingMsg{m: m, f: f})
	s.Thread.Submit(now, s.app.ProcessingCost(m), runApp, s, nil)
	return true
}

// runApp is the app-thread completion path, a top-level function so the
// handoff to the thread allocates nothing. The thread executes work
// serially in submission order, so this run's message is the pending
// FIFO's head.
func runApp(done sim.Time, a1, _ any) {
	s := a1.(*Socket)
	p := s.pending[s.head]
	s.pending[s.head] = pendingMsg{}
	s.head++
	s.queued--
	s.app.OnMessage(done, p.m)
	if p.f != nil {
		p.f.Release()
	}
}

// Queued returns how many messages sit in the receive buffer awaiting the
// app thread.
func (s *Socket) Queued() int { return s.queued }

// HeldFrames returns how many pooled frame buffers the pending messages
// hold (released only after OnMessage returns). The invariant checker uses
// it: frames parked here are in-flight, not leaked.
func (s *Socket) HeldFrames() int {
	n := 0
	for i := s.head; i < len(s.pending); i++ {
		if s.pending[i].f != nil {
			n++
		}
	}
	return n
}

// Table is a per-namespace socket demux table (one per container and one
// for the host). A namespace binds a handful of ports, so the table is a
// small slice: the per-packet Lookup is a short linear scan over two-field
// compares, cheaper than hashing a composite key into a map.
type Table struct {
	Name  string
	socks []*Socket

	// Obs, when set, records socket deliveries (closing each packet's
	// lifecycle span stream) and rcvbuf-overflow drops. Deliveries go
	// through obsDeliver, bound to Obs on the first one.
	Obs        *obs.Pipeline
	obsDeliver *obs.Stage
}

// NewTable returns an empty socket table.
func NewTable(name string) *Table {
	return &Table{Name: name}
}

// Bind registers a socket for (proto, port). Binding a taken port fails,
// as bind(2) would.
func (t *Table) Bind(proto uint8, port uint16, thread *sched.Thread, app App, recvCap int) (*Socket, error) {
	if t.Lookup(proto, port) != nil {
		return nil, fmt.Errorf("socket: %s port %d/%d already bound", t.Name, proto, port)
	}
	s := &Socket{Proto: uint16(proto), Port: port, Thread: thread, app: app, tbl: t, RecvCap: recvCap}
	t.socks = append(t.socks, s)
	return s, nil
}

// Each calls fn for every bound socket, in bind order.
func (t *Table) Each(fn func(*Socket)) {
	for _, s := range t.socks {
		fn(s)
	}
}

// Lookup finds the socket bound to (proto, dstPort), or nil.
func (t *Table) Lookup(proto uint8, port uint16) *Socket {
	for _, s := range t.socks {
		if s.Port == port && s.Proto == uint16(proto) {
			return s
		}
	}
	return nil
}

// AppFunc is a convenience App built from two functions.
type AppFunc struct {
	Cost func(m Message) sim.Time
	Fn   func(done sim.Time, m Message)
}

// ProcessingCost implements App.
func (a AppFunc) ProcessingCost(m Message) sim.Time {
	if a.Cost == nil {
		return 0
	}
	return a.Cost(m)
}

// OnMessage implements App.
func (a AppFunc) OnMessage(done sim.Time, m Message) {
	if a.Fn != nil {
		a.Fn(done, m)
	}
}
