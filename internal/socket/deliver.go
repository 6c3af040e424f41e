package socket

import (
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// DeliverToTable finishes protocol processing for a frame addressed to a
// local socket table and produces the stage result. It is the tail of both
// the host path (from the NIC stage) and the container path (from the veth
// stage): transport demux and payload validation happen here, at handler
// time — so drops are attributed to the stage — and the socket itself is
// the result's Sink, consuming the SKB at its completion time without a
// per-packet closure. A stamped SKB (skb.Parsed) has its payload sliced
// from the headers stage 1 validated; any other gets the full validation.
func DeliverToTable(tbl *Table, cost sim.Time, skb *pkt.SKB) netdev.Result {
	if tbl == nil {
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: cost}
	}
	sock := tbl.Lookup(skb.Flow.Proto, skb.Flow.DstPort)
	if sock == nil {
		// No listener: ICMP port-unreachable territory; count as a drop.
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: cost}
	}
	var payload []byte
	var err error
	if skb.Parsed {
		payload, err = pkt.ValidatedPayload(skb.Data)
	} else {
		payload, err = pkt.TransportPayload(skb.Data)
	}
	if err != nil {
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: cost}
	}
	skb.Payload = payload
	return netdev.Result{Verdict: netdev.VerdictDeliver, Cost: cost, Sink: sock}
}
