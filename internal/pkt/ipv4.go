package pkt

import (
	"encoding/binary"
	"fmt"
)

// IPv4HeaderLen is the length of an IPv4 header without options; the
// simulated stack never emits options.
const IPv4HeaderLen = 20

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16 // header + payload
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16 // as parsed; recomputed on encode
	Src      IPv4
	Dst      IPv4
}

// PutIPv4 encodes h at the start of b (which must have room for
// IPv4HeaderLen bytes), computing the header checksum, and returns the
// number of bytes written.
func PutIPv4(b []byte, h IPv4Header) int {
	_ = b[IPv4HeaderLen-1]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	cs := ipChecksum(b[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[10:12], cs)
	return IPv4HeaderLen
}

// ParseIPv4 decodes and validates an IPv4 header from the start of b. It
// verifies version, IHL, total length and the header checksum — the same
// validations ip_rcv performs.
func ParseIPv4(b []byte) (IPv4Header, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4Header{}, fmt.Errorf("pkt: ipv4 packet too short: %d bytes", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return IPv4Header{}, fmt.Errorf("pkt: ipv4 bad version %d", v)
	}
	if ihl := int(b[0]&0x0f) * 4; ihl != IPv4HeaderLen {
		return IPv4Header{}, fmt.Errorf("pkt: ipv4 unsupported header length %d", ihl)
	}
	if ipChecksum20(b) != 0 {
		return IPv4Header{}, fmt.Errorf("pkt: ipv4 header checksum mismatch")
	}
	var h IPv4Header
	h.TOS = b[1]
	h.TotalLen = uint16(b[2])<<8 | uint16(b[3])
	if int(h.TotalLen) > len(b) || h.TotalLen < IPv4HeaderLen {
		return IPv4Header{}, fmt.Errorf("pkt: ipv4 bad total length %d (frame %d)", h.TotalLen, len(b))
	}
	h.ID = uint16(b[4])<<8 | uint16(b[5])
	ff := uint16(b[6])<<8 | uint16(b[7])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = uint16(b[10])<<8 | uint16(b[11])
	h.Src = IPv4(b[12:16])
	h.Dst = IPv4(b[16:20])
	return h, nil
}

// validIPv4 reports whether ParseIPv4 accepts b, without building the
// header: the per-packet parsers call ParseIPv4 only for its error.
func validIPv4(b []byte) bool {
	if len(b) < IPv4HeaderLen || b[0] != 0x45 || ipChecksum20(b) != 0 {
		return false
	}
	n := int(b[2])<<8 | int(b[3])
	return n >= IPv4HeaderLen && n <= len(b)
}

// ipChecksum computes the RFC 1071 internet checksum over b. Over a header
// whose checksum field holds the correct value, the result is zero.
func ipChecksum(b []byte) uint16 {
	if len(b) == IPv4HeaderLen {
		return ipChecksum20(b)
	}
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ipChecksum20 is ipChecksum unrolled for the option-less 20-byte header —
// the only shape this stack emits, validated for every packet at stage 1.
// b must hold at least IPv4HeaderLen bytes.
func ipChecksum20(b []byte) uint16 {
	b = b[:IPv4HeaderLen]
	var s uint32
	s += uint32(b[0])<<8 | uint32(b[1])
	s += uint32(b[2])<<8 | uint32(b[3])
	s += uint32(b[4])<<8 | uint32(b[5])
	s += uint32(b[6])<<8 | uint32(b[7])
	s += uint32(b[8])<<8 | uint32(b[9])
	s += uint32(b[10])<<8 | uint32(b[11])
	s += uint32(b[12])<<8 | uint32(b[13])
	s += uint32(b[14])<<8 | uint32(b[15])
	s += uint32(b[16])<<8 | uint32(b[17])
	s += uint32(b[18])<<8 | uint32(b[19])
	for s > 0xffff {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}
