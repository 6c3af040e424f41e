package testbed

import (
	"fmt"
	"strings"

	"prism/internal/fault"
	"prism/internal/overlay"
	"prism/internal/sim"
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

// ClusterTerms aggregates the fabric-level conservation terms of a
// multi-host topology: what entered the fabric, where it left, and what
// is still riding it. The per-host ledgers account for everything after
// InjectFromWire; these terms close the loop across hosts.
type ClusterTerms struct {
	// Injected counts frames handed to the fabric: generator sends
	// admitted at an ingress host plus server replies leaving over
	// WireTx.
	Injected uint64
	// ToHosts counts fabric frames delivered into a host's wire-RX path;
	// ToClients counts reply frames delivered to an ingress host's
	// client demux.
	ToHosts   uint64
	ToClients uint64
	// Dropped counts frames the fabric discarded: egress-queue tail
	// drops, low-priority shed victims, unroutable frames, and
	// misdeliveries.
	Dropped uint64
	// InFlight counts frames still inside the fabric: queued at or being
	// serialized by a switch egress port, buffered on a cross-shard
	// link, or waiting in a shard inbox past the horizon.
	InFlight int

	// CrashDropped is the subset of Dropped absorbed at fail-stopped
	// hosts' wires; EpochDropped the subset that crossed a routing-epoch
	// swap in flight. Both are informational breakouts — they are already
	// inside Dropped.
	CrashDropped uint64
	EpochDropped uint64

	// PerHost / PerSwitch break the aggregate terms down per component;
	// a failed cluster equation prints them so the residual is
	// attributable. Optional — older callers leave them empty.
	PerHost   []HostTerms
	PerSwitch []SwitchTerms
	// Migrations carries one reconciliation record per recovery
	// re-placement; CheckCluster verifies each one's service counters
	// are consistent across the old and new replica.
	Migrations []MigrationTerm
}

// HostTerms is one host's fabric-boundary counters.
type HostTerms struct {
	Name       string
	Injected   uint64
	FromFabric uint64
	ToClients  uint64
	Misrouted  uint64
	CrashRx    uint64
	CrashTx    uint64
	EpochDrops uint64
}

// SwitchTerms is one switch's closed conservation equation: every
// arrival is forwarded, dropped, or still inside the switch.
type SwitchTerms struct {
	Name      string
	Rx        uint64
	Forwarded uint64
	Dropped   uint64
	InFlight  int
}

// MigrationTerm reconciles one migrated flow across its replicas: the
// old host had served ServedAtSwap requests when the routing epoch
// swapped at At; Served is the live total across old and new replicas,
// Sent the generator's emissions, Received the client-side deliveries.
type MigrationTerm struct {
	Flow             string
	OldHost, NewHost int
	At               sim.Time
	ServedAtSwap     uint64
	Sent             uint64
	Served           uint64
	Received         uint64
}

// residualTables renders the per-host and per-switch breakdowns appended
// to a failed cluster equation.
func residualTables(terms ClusterTerms) string {
	var b strings.Builder
	if len(terms.PerHost) > 0 {
		b.WriteString("\nper-host terms (injected / from-fabric / to-clients / misrouted / crash-rx / crash-tx / epoch-drops):")
		for _, h := range terms.PerHost {
			fmt.Fprintf(&b, "\n  %s: %d / %d / %d / %d / %d / %d / %d",
				h.Name, h.Injected, h.FromFabric, h.ToClients, h.Misrouted, h.CrashRx, h.CrashTx, h.EpochDrops)
		}
	}
	if len(terms.PerSwitch) > 0 {
		b.WriteString("\nper-switch terms (rx / forwarded / dropped / in-flight):")
		for _, s := range terms.PerSwitch {
			fmt.Fprintf(&b, "\n  %s: %d / %d / %d / %d", s.Name, s.Rx, s.Forwarded, s.Dropped, s.InFlight)
		}
	}
	return b.String()
}

// CheckCluster verifies a multi-host topology: each host's own ledger
// must balance, the per-host wire counts must sum to the fabric's
// delivered total, every frame that entered the fabric must be
// delivered, dropped, or visibly in flight, each switch's own arrivals
// must balance, and every migration record must reconcile across its
// replicas. strict additionally demands an empty fabric — use it after
// the cluster has settled. Conservation holds across host crashes and
// routing-epoch swaps because the boundary cases are counted, not
// discarded: a down host's wire absorbs frames into CrashDropped, a
// stale-epoch arrival lands in EpochDropped, and both are inside
// Dropped. A failed cluster equation appends the per-host and
// per-switch residual tables when the caller provided them.
func CheckCluster(hosts []*overlay.Host, planes []*fault.Plane, terms ClusterTerms, strict bool) error {
	if err := CheckHosts(hosts, planes, strict); err != nil {
		return err
	}
	var wire uint64
	for _, h := range hosts {
		wire += h.RxWire
	}
	if wire != terms.ToHosts {
		return fmt.Errorf("cluster: fabric handoff broken: hosts saw %d wire frames but the fabric delivered %d%s",
			wire, terms.ToHosts, residualTables(terms))
	}
	if terms.InFlight < 0 {
		return fmt.Errorf("cluster: negative in-flight count %d", terms.InFlight)
	}
	if terms.Injected != terms.ToHosts+terms.ToClients+terms.Dropped+uint64(terms.InFlight) {
		return fmt.Errorf("cluster: fabric conservation broken: %d injected != %d to-hosts + %d to-clients + %d dropped + %d in-flight%s",
			terms.Injected, terms.ToHosts, terms.ToClients, terms.Dropped, terms.InFlight, residualTables(terms))
	}
	if terms.CrashDropped+terms.EpochDropped > terms.Dropped {
		return fmt.Errorf("cluster: drop breakouts exceed the total: %d crash + %d epoch > %d dropped",
			terms.CrashDropped, terms.EpochDropped, terms.Dropped)
	}
	for _, s := range terms.PerSwitch {
		if s.InFlight < 0 {
			return fmt.Errorf("cluster: %s: negative in-flight count %d", s.Name, s.InFlight)
		}
		if s.Rx != s.Forwarded+s.Dropped+uint64(s.InFlight) {
			return fmt.Errorf("cluster: %s conservation broken: %d rx != %d forwarded + %d dropped + %d in-flight%s",
				s.Name, s.Rx, s.Forwarded, s.Dropped, s.InFlight, residualTables(terms))
		}
	}
	for _, m := range terms.Migrations {
		if m.ServedAtSwap > m.Served {
			return fmt.Errorf("cluster: migration %s (host%02d->host%02d at %d): old replica had served %d at the swap but the replicas total only %d",
				m.Flow, m.OldHost, m.NewHost, m.At, m.ServedAtSwap, m.Served)
		}
		if m.Served > m.Sent {
			return fmt.Errorf("cluster: migration %s (host%02d->host%02d at %d): replicas served %d of only %d sent",
				m.Flow, m.OldHost, m.NewHost, m.At, m.Served, m.Sent)
		}
		if m.Received > m.Served {
			return fmt.Errorf("cluster: migration %s (host%02d->host%02d at %d): client received %d but the replicas served only %d",
				m.Flow, m.OldHost, m.NewHost, m.At, m.Received, m.Served)
		}
	}
	if strict && terms.InFlight != 0 {
		return fmt.Errorf("cluster: settled fabric still holds %d frames%s", terms.InFlight, residualTables(terms))
	}
	return nil
}
