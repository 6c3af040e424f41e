// Package veth models a container's virtual Ethernet interface — stage 3
// of the overlay pipeline. veth has no NAPI implementation of its own; in
// Linux it goes through netif_rx into the per-CPU backlog and is polled by
// process_backlog (§II-A3). The device here carries the DriverBacklog kind
// so traces show the same three driver classes as the paper's Fig. 1.
//
// The stage performs the container-side protocol receive: inner IP and
// transport processing, then socket demux within the container's network
// namespace.
package veth

import (
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sim"
	"prism/internal/socket"
)

// QueueCap mirrors netdev_max_backlog (1000 in default Linux).
const QueueCap = 1000

// Veth is a container-facing virtual interface.
type Veth struct {
	Dev *netdev.Device

	costs *netdev.Costs
	// MAC and IP identify the container endpoint; frames not addressed to
	// them are dropped (the interface is not promiscuous).
	MAC pkt.MAC
	IP  pkt.IPv4
	// sockets is the container namespace's socket table.
	sockets *socket.Table

	// Misaddressed counts frames that reached this veth with a foreign
	// destination (would indicate an FDB bug).
	Misaddressed uint64
}

// New builds the veth device for a container endpoint.
func New(name string, costs *netdev.Costs, mac pkt.MAC, ip pkt.IPv4, sockets *socket.Table) *Veth {
	v := &Veth{costs: costs, MAC: mac, IP: ip, sockets: sockets}
	v.Dev = netdev.NewDevice(name, netdev.DriverBacklog, netdev.HandlerFunc(v.handle), QueueCap)
	return v
}

func (v *Veth) handle(now sim.Time, skb *pkt.SKB) netdev.Result {
	eth, err := pkt.ParseEthernet(skb.Data)
	if err != nil {
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: v.costs.VethPacket}
	}
	if eth.Dst != v.MAC && !eth.Dst.IsBroadcast() {
		v.Misaddressed++
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: v.costs.VethPacket}
	}
	// The inner IP header is validated the way ip_rcv does at stage 1,
	// which stamps the SKB; DeliverToTable validates an unstamped one.
	return socket.DeliverToTable(v.sockets, v.costs.VethPacket, skb)
}
