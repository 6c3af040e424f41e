// Package traffic implements the workload side of the experiments: the
// client machine's generators (sockperf analogues) and latency recorders.
//
// The client machine is modelled as constants rather than a second packet
// simulation: the paper's client is never the bottleneck, so its TX/RX
// stacks contribute fixed terms to the measured round-trip (sockperf
// reports RTT/2, so an un-contended client-side stack dilutes but never
// reorders comparative results — the same dilution exists in the paper's
// numbers).
package traffic

import (
	"prism/internal/overlay"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// Client-side stack constants, estimated for the paper's testbed: a
// containerized sockperf on an idle machine.
const (
	// DefaultClientTx covers sendto(2) plus the client's overlay egress.
	DefaultClientTx = 8 * sim.Microsecond
	// DefaultClientRx covers the client's overlay ingress (NIC→veth→app)
	// for the reply, on an idle machine.
	DefaultClientRx = 22 * sim.Microsecond
)

// zeroPayload backs every generator payload: the generators send zero
// bytes (an echo request's probe is written into its encoded frame), and
// the encoders only read it, so one read-only array serves every flow on
// every shard.
var zeroPayload [pkt.MTU]byte

// zeros returns an n-byte zero payload, shared when n fits zeroPayload.
func zeros(n int) []byte {
	if n <= len(zeroPayload) {
		return zeroPayload[:n]
	}
	return make([]byte, n)
}

// Client demuxes frames the server transmits back over the wire, routing
// them to per-port handlers (one per generator). Register handlers before
// attaching traffic.
type Client struct {
	handlers map[uint16]func(now sim.Time, payload []byte, flow pkt.FlowKey)
	// Unrouted counts reply frames without a registered handler.
	Unrouted uint64
}

// NewClient builds the client machine and attaches it to the host's wire.
func NewClient(h *overlay.Host) *Client {
	c := &Client{handlers: make(map[uint16]func(sim.Time, []byte, pkt.FlowKey))}
	h.AttachRemote(c.rx)
	return c
}

// Register installs the handler for replies whose inner destination port
// is port (i.e. the client-side source port of the flow).
func (c *Client) Register(port uint16, fn func(now sim.Time, payload []byte, flow pkt.FlowKey)) {
	c.handlers[port] = fn
}

// Deliver feeds a wire frame into the client stack at time now. The
// standard topology routes frames here automatically via AttachRemote;
// the multi-host cluster (internal/cluster) calls it from the fabric's
// deliver hook, so the client side can run on another shard than the
// host.
func (c *Client) Deliver(now sim.Time, frame []byte) { c.rx(now, frame) }

func (c *Client) rx(now sim.Time, frame []byte) {
	inner, flow, err := pkt.InnerFlow(frame)
	if err != nil {
		c.Unrouted++
		return
	}
	h := c.handlers[flow.DstPort]
	if h == nil {
		c.Unrouted++
		return
	}
	payload, err := pkt.ValidatedPayload(inner)
	if err != nil {
		c.Unrouted++
		return
	}
	h(now, payload, flow)
}
