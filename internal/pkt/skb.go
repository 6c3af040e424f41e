package pkt

import (
	"fmt"

	"prism/internal/sim"
)

// SKB mirrors the kernel's sk_buff: the frame bytes plus the metadata that
// travels with the packet through every processing stage. The same SKB
// instance is passed from device to device, exactly as in the kernel, so
// per-packet state (notably the PRISM priority bit, §IV-A) is computed once
// and reused.
type SKB struct {
	// Data holds the frame as currently visible to the stack. Decapsulation
	// re-slices it; the outer headers are "stripped" without copying.
	Data []byte

	// HighPriority is the binary priority variable PRISM adds to sk_buff.
	// It is assigned exactly once, when the SKB is allocated during the
	// physical device's poll (the paper's mlx5e_napi_poll analogue).
	HighPriority bool

	// Priority is the multi-level generalization (§VII-3): 0 is best
	// effort; levels 1..netdev.MaxPriorityLevels are increasingly urgent.
	// HighPriority == (Priority > 0).
	Priority int

	// Flow is the flow key of the *innermost* parsed headers so far; updated
	// after decapsulation. Zero until first parse.
	Flow FlowKey

	// Encapsulated marks a frame recognised as VXLAN during stage-1
	// processing (set before decapsulation, cleared after).
	Encapsulated bool

	// Parsed is stage 1's stamp: the NIC poll validated Data's Ethernet,
	// IPv4 and transport headers with ParseFlow and cached the result in
	// Flow. Later stages trust it instead of validating the same headers
	// again; delivery validates an unstamped SKB in full. The pool reset
	// clears it.
	Parsed bool

	// Arrived is when the NIC DMA'd the frame into the ring.
	Arrived sim.Time

	// Delivered is when the payload reached the application socket buffer;
	// zero while in flight.
	Delivered sim.Time

	// ID is a unique per-simulation packet identifier for conservation and
	// trace checks.
	ID uint64

	// Stage counts processing stages completed so far (for traces/tests).
	Stage int

	// GROSegs is the number of wire frames coalesced into this SKB by GRO
	// (1 for an unmerged packet). Downstream stages process a merged SKB
	// once — the whole point of GRO.
	GROSegs int

	// Payload caches the TransportPayload slice of Data, set by the
	// delivery stage when it validates the frame so the socket does not
	// re-parse the headers. It aliases Data: valid exactly as long as the
	// frame is, cleared when the SKB is recycled.
	Payload []byte

	// Wait is the observability pipeline's lifecycle cursor for this
	// packet; the pool reset on Free closes it.
	Wait WaitCursor

	// Pooling state (see pool.go). frame is the pooled buffer backing
	// Data; owner is the SKBPool Free returns the SKB to; gen counts
	// recycles; pooled guards against double-put.
	frame  *Frame
	owner  *SKBPool
	gen    uint32
	pooled bool
}

// WaitCursor records when a packet's previous lifecycle event completed
// (DMA into the ring, or the end of a stage span), so the next stage can
// report how long the packet queued before it. Open is set when the
// lifecycle starts and cleared when delivery, a drop or GRO absorption
// ends it.
type WaitCursor struct {
	At   sim.Time
	Open bool
}

// Len returns the current frame length in bytes.
func (s *SKB) Len() int { return len(s.Data) }

// String summarises the SKB for traces.
func (s *SKB) String() string {
	prio := "lo"
	if s.HighPriority {
		prio = "HI"
	}
	return fmt.Sprintf("skb#%d[%s %s len=%d stage=%d]", s.ID, prio, s.Flow, s.Len(), s.Stage)
}

// Header bytes of a plain UDP and a plain TCP frame: an encoded frame is
// its overhead plus the payload.
const (
	UDPFrameOverhead = EthHeaderLen + IPv4HeaderLen + UDPHeaderLen
	TCPFrameOverhead = EthHeaderLen + IPv4HeaderLen + TCPHeaderLen
)

// UDPFrameSpec describes a plain (non-encapsulated) Ethernet+IPv4+UDP frame.
type UDPFrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	TOS              uint8
	ID               uint16
	Payload          []byte
}

// sized returns dst resized to n bytes, reusing its backing array when the
// capacity allows (the pooled hot path) and allocating only on overflow.
func sized(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}

// BuildUDPFrame encodes the spec into a complete Ethernet frame.
func BuildUDPFrame(sp UDPFrameSpec) []byte { return AppendUDPFrame(nil, sp) }

// AppendUDPFrame is BuildUDPFrame writing into dst's backing array when it
// has the capacity, allocating only on overflow. It returns the encoded
// frame.
func AppendUDPFrame(dst []byte, sp UDPFrameSpec) []byte {
	b := sized(dst, UDPFrameOverhead+len(sp.Payload))
	putUDPFrame(b, sp)
	return b
}

// putUDPFrame encodes sp into b, which is exactly the frame's length.
func putUDPFrame(b []byte, sp UDPFrameSpec) {
	off := PutEthernet(b, EthernetHeader{Dst: sp.DstMAC, Src: sp.SrcMAC, EtherType: EtherTypeIPv4})
	off += PutIPv4(b[off:], IPv4Header{
		TOS:      sp.TOS,
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + len(sp.Payload)),
		ID:       sp.ID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      sp.SrcIP,
		Dst:      sp.DstIP,
	})
	off += PutUDP(b[off:], UDPHeader{
		SrcPort: sp.SrcPort,
		DstPort: sp.DstPort,
		Length:  uint16(UDPHeaderLen + len(sp.Payload)),
	})
	copy(b[off:], sp.Payload)
}

// TCPFrameSpec describes a plain Ethernet+IPv4+TCP frame.
type TCPFrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	ID               uint16
	Payload          []byte
}

// BuildTCPFrame encodes the spec into a complete Ethernet frame.
func BuildTCPFrame(sp TCPFrameSpec) []byte { return AppendTCPFrame(nil, sp) }

// AppendTCPFrame is BuildTCPFrame writing into dst's backing array when it
// has the capacity, allocating only on overflow.
func AppendTCPFrame(dst []byte, sp TCPFrameSpec) []byte {
	b := sized(dst, TCPFrameOverhead+len(sp.Payload))
	putTCPFrame(b, sp)
	return b
}

// putTCPFrame encodes sp into b, which is exactly the frame's length.
func putTCPFrame(b []byte, sp TCPFrameSpec) {
	off := PutEthernet(b, EthernetHeader{Dst: sp.DstMAC, Src: sp.SrcMAC, EtherType: EtherTypeIPv4})
	off += PutIPv4(b[off:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + TCPHeaderLen + len(sp.Payload)),
		ID:       sp.ID,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      sp.SrcIP,
		Dst:      sp.DstIP,
	})
	off += PutTCP(b[off:], TCPHeader{
		SrcPort: sp.SrcPort,
		DstPort: sp.DstPort,
		Seq:     sp.Seq,
		Ack:     sp.Ack,
		Flags:   sp.Flags,
		Window:  65535,
	})
	copy(b[off:], sp.Payload)
}

// VXLANSpec describes the outer encapsulation of an overlay frame.
type VXLANSpec struct {
	OuterSrcMAC, OuterDstMAC MAC
	OuterSrcIP, OuterDstIP   IPv4
	SrcPort                  uint16 // outer UDP source port (flow entropy)
	VNI                      uint32
	ID                       uint16
}

// Encapsulate wraps inner (a complete Ethernet frame) in outer
// Ethernet+IPv4+UDP+VXLAN headers, as the VXLAN egress path does. The
// one-buffer encoders below produce the same bytes without the inner
// frame; Encapsulate of BuildUDPFrame/BuildTCPFrame is their test oracle.
func Encapsulate(sp VXLANSpec, inner []byte) []byte {
	b := make([]byte, VXLANOverhead+len(inner))
	putVXLANOuter(b, sp, len(inner))
	copy(b[VXLANOverhead:], inner)
	return b
}

// EncapUDPInto encodes Encapsulate(vs, BuildUDPFrame(sp)) in one pass: the
// outer headers, then the inner frame in place after them — no inner
// buffer, no copy of it. It writes into dst's backing array when it has
// the capacity, allocating only on overflow; sp.Payload must not alias
// dst.
func EncapUDPInto(dst []byte, vs VXLANSpec, sp UDPFrameSpec) []byte {
	inner := UDPFrameOverhead + len(sp.Payload)
	b := sized(dst, VXLANOverhead+inner)
	putVXLANOuter(b, vs, inner)
	putUDPFrame(b[VXLANOverhead:], sp)
	return b
}

// EncapTCPInto is EncapUDPInto for an inner TCP segment.
func EncapTCPInto(dst []byte, vs VXLANSpec, sp TCPFrameSpec) []byte {
	inner := TCPFrameOverhead + len(sp.Payload)
	b := sized(dst, VXLANOverhead+inner)
	putVXLANOuter(b, vs, inner)
	putTCPFrame(b[VXLANOverhead:], sp)
	return b
}

// putVXLANOuter writes the VXLANOverhead bytes of outer headers for an
// inner frame of innerLen bytes at the start of b.
func putVXLANOuter(b []byte, sp VXLANSpec, innerLen int) {
	off := PutEthernet(b, EthernetHeader{Dst: sp.OuterDstMAC, Src: sp.OuterSrcMAC, EtherType: EtherTypeIPv4})
	off += PutIPv4(b[off:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + VXLANHeaderLen + innerLen),
		ID:       sp.ID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      sp.OuterSrcIP,
		Dst:      sp.OuterDstIP,
	})
	off += PutUDP(b[off:], UDPHeader{
		SrcPort: sp.SrcPort,
		DstPort: VXLANPort,
		Length:  uint16(UDPHeaderLen + VXLANHeaderLen + innerLen),
	})
	PutVXLAN(b[off:], VXLANHeader{VNI: sp.VNI})
}

// Decapsulate validates the outer Ethernet+IPv4+UDP+VXLAN headers of frame
// and returns the VNI and the inner Ethernet frame (a sub-slice, no copy).
func Decapsulate(frame []byte) (vni uint32, inner []byte, err error) {
	if len(frame) < EthHeaderLen {
		return 0, nil, errEthernetShort
	}
	if et := etherType(frame); et != EtherTypeIPv4 {
		return 0, nil, fmt.Errorf("pkt: outer ethertype 0x%04x is not IPv4", et)
	}
	ip := frame[EthHeaderLen:]
	if !validIPv4(ip) {
		_, err := ParseIPv4(ip)
		return 0, nil, err
	}
	if proto := ip[9]; proto != ProtoUDP {
		return 0, nil, fmt.Errorf("pkt: outer protocol %d is not UDP", proto)
	}
	udpOff := EthHeaderLen + IPv4HeaderLen
	udp, err := ParseUDP(frame[udpOff:])
	if err != nil {
		return 0, nil, err
	}
	if udp.DstPort != VXLANPort {
		return 0, nil, fmt.Errorf("pkt: outer UDP port %d is not VXLAN", udp.DstPort)
	}
	if int(udp.Length) < UDPHeaderLen+VXLANHeaderLen {
		return 0, nil, fmt.Errorf("pkt: outer UDP length %d too short for VXLAN", udp.Length)
	}
	vxOff := udpOff + UDPHeaderLen
	vx, err := ParseVXLAN(frame[vxOff:])
	if err != nil {
		return 0, nil, err
	}
	// Bound the inner frame by the outer UDP datagram length, not the wire
	// frame length: a minimum-size Ethernet frame arrives padded to 60
	// bytes, and the pad after the datagram is not part of the inner frame.
	return vx.VNI, frame[vxOff+VXLANHeaderLen : udpOff+int(udp.Length)], nil
}

// IsVXLAN reports whether frame looks like a VXLAN-encapsulated packet,
// without fully validating it. This is the cheap early check the NIC-stage
// poll uses to route the frame to the tunnel endpoint.
func IsVXLAN(frame []byte) bool {
	if len(frame) < EthHeaderLen+IPv4HeaderLen+UDPHeaderLen+VXLANHeaderLen {
		return false
	}
	// EtherType IPv4, protocol UDP, destination port VXLAN — straight byte
	// compares; this runs once per frame in the stage-1 poll.
	if etherType(frame) != EtherTypeIPv4 {
		return false
	}
	if frame[EthHeaderLen+9] != ProtoUDP {
		return false
	}
	dport := uint16(frame[EthHeaderLen+IPv4HeaderLen+2])<<8 | uint16(frame[EthHeaderLen+IPv4HeaderLen+3])
	return dport == VXLANPort
}

// InnerFlow strips VXLAN encapsulation when frame carries it and parses
// the flow key of the frame inside: the flow that identifies the
// container application. It returns that inner frame (frame itself when
// it is not VXLAN, a sub-slice otherwise) and fails when either the
// outer headers or the inner flow do not validate.
func InnerFlow(frame []byte) (inner []byte, flow FlowKey, err error) {
	inner = frame
	if IsVXLAN(frame) {
		if _, inner, err = Decapsulate(frame); err != nil {
			return nil, FlowKey{}, err
		}
	}
	if flow, err = ParseFlow(inner); err != nil {
		return nil, FlowKey{}, err
	}
	return inner, flow, nil
}

// ParseFlow extracts the transport flow key from an Ethernet frame. For
// non-IPv4 or non-UDP/TCP frames it returns an error.
//
// It and Decapsulate validate what ParseEthernet and ParseIPv4 validate,
// with the same errors, but read only the fields they use: building the
// full header structs cost more than the checksum on every packet.
func ParseFlow(frame []byte) (FlowKey, error) {
	if len(frame) < EthHeaderLen {
		return FlowKey{}, errEthernetShort
	}
	if et := etherType(frame); et != EtherTypeIPv4 {
		return FlowKey{}, fmt.Errorf("pkt: ethertype 0x%04x has no flow key", et)
	}
	ip := frame[EthHeaderLen:]
	if !validIPv4(ip) {
		_, err := ParseIPv4(ip)
		return FlowKey{}, err
	}
	k := FlowKey{SrcIP: IPv4(ip[12:16]), DstIP: IPv4(ip[16:20]), Proto: ip[9]}
	tOff := EthHeaderLen + IPv4HeaderLen
	switch k.Proto {
	case ProtoUDP:
		u, err := ParseUDP(frame[tOff:])
		if err != nil {
			return FlowKey{}, err
		}
		k.SrcPort, k.DstPort = u.SrcPort, u.DstPort
	case ProtoTCP:
		t, err := ParseTCP(frame[tOff:])
		if err != nil {
			return FlowKey{}, err
		}
		k.SrcPort, k.DstPort = t.SrcPort, t.DstPort
	default:
		return FlowKey{}, fmt.Errorf("pkt: protocol %d has no flow key", k.Proto)
	}
	return k, nil
}
