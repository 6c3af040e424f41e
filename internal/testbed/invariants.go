package testbed

import (
	"fmt"

	"prism/internal/fault"
	"prism/internal/overlay"
	"prism/internal/socket"
)

// The invariant checker closes the loop on fault injection: whatever the
// plane did to a run — corrupted frames, overrun rings, lost interrupts,
// stalled consumers — every wire frame must still be accounted for
// (conserved into a delivery, an attributed drop, or a visible in-flight
// position) and every pooled object must come back. The equations hold at
// any point between events; at quiescence the in-flight terms must all be
// zero, which is the zero-leak assertion.

// hostLedger aggregates one host's conservation terms.
type hostLedger struct {
	wire        uint64 // frames arrived from the wire
	linkDropped uint64 // lost to injected link flaps (pre-DMA)
	overruns    uint64 // lost to injected DMA overruns (pre-ring)
	ringDrops   uint64 // rejected by full RX rings
	dmad        uint64 // admitted to a ring
	merged      uint64 // absorbed into GRO super-SKBs
	nicShed     uint64 // evicted from rings by the shed policy
	rxDelivered uint64 // softirq delivery verdicts
	rxDropped   uint64 // softirq drop verdicts (handlers, full queues, shed)

	delayed    int // jitter-delayed frames awaiting their deferred DMA
	queued     int // packets sitting in device input queues
	pend       int // deliveries scheduled but not yet run at a socket
	sockQueued int // messages buffered in socket rcvbufs
	heldFrames int // frames parked under buffered socket messages

	skbOut      int    // SKBs checked out of the NIC pools
	frameOut    int    // frame buffers checked out of the NIC pools
	delayPool   int    // frame buffers checked out of the delay pool
	sockAttempt uint64 // socket push attempts (received + rcvbuf drops)
}

func ledger(h *overlay.Host, plane *fault.Plane) hostLedger {
	var l hostLedger
	l.wire = h.RxWire
	if plane != nil {
		c := plane.Stats()
		l.linkDropped = c.LinkDropped
	}
	for _, n := range h.NICs {
		l.overruns += n.Overruns
		l.ringDrops += n.Dev.LowQ.Dropped + n.Dev.HighQ.Dropped
		l.dmad += n.DMAd
		l.merged += n.Merged
		l.nicShed += n.ShedDrops
		l.queued += n.Dev.QueuedPackets()
		s, f := n.PoolOutstanding()
		l.skbOut += s
		l.frameOut += f
	}
	for _, rx := range h.Rxs {
		st := rx.Stats()
		l.rxDelivered += st.Delivered
		l.rxDropped += st.Dropped
	}
	for _, br := range h.BridgeCells {
		l.queued += br.Dev.QueuedPackets()
	}
	for _, bl := range h.Backlogs {
		l.queued += bl.Dev.QueuedPackets()
	}
	tables := []*socket.Table{h.HostSockets}
	for _, c := range h.Containers {
		tables = append(tables, c.Sockets)
	}
	for _, tbl := range tables {
		tbl.Each(func(s *socket.Socket) {
			l.sockAttempt += s.Receivd + s.Drops
			l.sockQueued += s.Queued()
			l.heldFrames += s.HeldFrames()
		})
	}
	l.delayed = h.DelayedInFlight()
	l.delayPool = h.DelayPoolOutstanding()
	l.pend = int(l.rxDelivered) - int(l.sockAttempt)
	return l
}

// check verifies one host's ledger. strict additionally demands that every
// in-flight term is zero — the post-drain zero-leak assertion.
func (l hostLedger) check(name string, strict bool) error {
	// (1) Wire conservation: every arrived frame is pre-DMA-dropped,
	// parked for deferred DMA, rejected by a full ring, or admitted.
	if l.wire != l.linkDropped+l.overruns+uint64(l.delayed)+l.ringDrops+l.dmad {
		return fmt.Errorf("%s: wire conservation broken: %d arrived != %d flap + %d overrun + %d delayed + %d ring-reject + %d admitted",
			name, l.wire, l.linkDropped, l.overruns, l.delayed, l.ringDrops, l.dmad)
	}
	// (2) Ring conservation: every admitted packet is delivered, dropped
	// (with its reason accounted by softirq or the shed policy), absorbed
	// by GRO, or still queued in a device.
	if l.dmad != l.rxDelivered+l.rxDropped+l.nicShed+l.merged+uint64(l.queued) {
		return fmt.Errorf("%s: ring conservation broken: %d admitted != %d delivered + %d dropped + %d shed + %d merged + %d queued",
			name, l.dmad, l.rxDelivered, l.rxDropped, l.nicShed, l.merged, l.queued)
	}
	// (3) Delivery handoff: softirq cannot have handed sockets more
	// packets than it delivered.
	if l.pend < 0 {
		return fmt.Errorf("%s: sockets saw %d pushes but softirq delivered only %d",
			name, l.sockAttempt, l.rxDelivered)
	}
	// (4) SKB balance: every checked-out SKB is queued in a device or
	// riding a scheduled delivery.
	if l.skbOut != l.queued+l.pend {
		return fmt.Errorf("%s: SKB pool leak: %d outstanding != %d queued + %d pending delivery",
			name, l.skbOut, l.queued, l.pend)
	}
	// (5) Frame balance: every checked-out frame backs a live SKB or a
	// buffered socket message.
	if l.frameOut != l.skbOut+l.heldFrames {
		return fmt.Errorf("%s: frame pool leak: %d outstanding != %d SKB-backed + %d socket-held",
			name, l.frameOut, l.skbOut, l.heldFrames)
	}
	// (6) Delay pool: exactly one parked buffer per delayed frame.
	if l.delayPool != l.delayed {
		return fmt.Errorf("%s: delay pool leak: %d outstanding != %d delayed frames",
			name, l.delayPool, l.delayed)
	}
	if strict {
		if l.delayed != 0 || l.queued != 0 || l.pend != 0 || l.sockQueued != 0 ||
			l.heldFrames != 0 || l.skbOut != 0 || l.frameOut != 0 {
			return fmt.Errorf("%s: drained run still holds state: delayed=%d queued=%d pend=%d sockQueued=%d heldFrames=%d skbOut=%d frameOut=%d",
				name, l.delayed, l.queued, l.pend, l.sockQueued, l.heldFrames, l.skbOut, l.frameOut)
		}
	}
	return nil
}

// CheckHosts verifies packet conservation and pool balance for each host.
// planes pairs with hosts by index (nil or shorter when not injecting).
// strict additionally requires every in-flight term to be zero — use it
// after a Drain.
func CheckHosts(hosts []*overlay.Host, planes []*fault.Plane, strict bool) error {
	for i, h := range hosts {
		var plane *fault.Plane
		if i < len(planes) {
			plane = planes[i]
		}
		name := fmt.Sprintf("host%d", i)
		if len(hosts) == 1 {
			name = "host"
		}
		if err := ledger(h, plane).check(name, strict); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies packet conservation and pool balance for the
// testbed's host. Once the event queue has drained, the strict zero-leak
// form is applied automatically.
func (t *Testbed) CheckInvariants() error {
	return CheckHosts([]*overlay.Host{t.Host}, []*fault.Plane{t.Plane}, t.Eng.Pending() == 0)
}
