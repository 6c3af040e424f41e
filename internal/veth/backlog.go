package veth

import (
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sim"
	"prism/internal/socket"
)

// Backlog is the per-CPU generic receive context that serves *all* veth
// interfaces on a core — the kernel's softnet_data.input_pkt_queue +
// process_backlog pair (§II-A3 of the paper). This is an important piece
// of fidelity: because every non-NAPI virtual device shares this one
// queue, a high-priority packet in vanilla NAPI waits behind *all*
// containers' backlog at stage 3, not just its own flow's. PRISM's second
// queue is added to exactly this structure in the paper (§IV-B extends
// softnet_data).
type Backlog struct {
	Dev *netdev.Device

	costs *netdev.Costs
	// endpoints maps each veth MAC (packed with pkt.MAC.Key for the fast
	// integer map path) to its container's identity and socket table.
	endpoints map[uint64]*endpoint

	// Misaddressed counts frames whose destination MAC has no registered
	// veth (an FDB inconsistency).
	Misaddressed uint64
}

type endpoint struct {
	ip      pkt.IPv4
	sockets *socket.Table
}

// NewBacklog builds the per-CPU backlog device. Its queue capacity is
// netdev_max_backlog (1000), shared by all veths on the core.
func NewBacklog(name string, costs *netdev.Costs) *Backlog {
	b := &Backlog{costs: costs, endpoints: make(map[uint64]*endpoint)}
	b.Dev = netdev.NewDevice(name, netdev.DriverBacklog, netdev.HandlerFunc(b.handle), QueueCap)
	return b
}

// Register attaches a veth endpoint (a container) to this backlog.
func (b *Backlog) Register(mac pkt.MAC, ip pkt.IPv4, sockets *socket.Table) {
	b.endpoints[mac.Key()] = &endpoint{ip: ip, sockets: sockets}
}

func (b *Backlog) handle(now sim.Time, skb *pkt.SKB) netdev.Result {
	eth, err := pkt.ParseEthernet(skb.Data)
	if err != nil {
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: b.costs.VethPacket}
	}
	ep := b.endpoints[eth.Dst.Key()]
	if ep == nil {
		b.Misaddressed++
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: b.costs.VethPacket}
	}
	return socket.DeliverToTable(ep.sockets, b.costs.VethPacket, skb)
}
