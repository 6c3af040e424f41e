package pkt

import (
	"encoding/binary"
	"errors"
)

// Ethernet and IP constants used across the stack.
const (
	EthHeaderLen = 14
	MTU          = 1500 // maximum L3 payload per Ethernet frame

	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806

	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// EthernetHeader is an Ethernet II header.
type EthernetHeader struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// PutEthernet encodes h at the start of b, which must have room for
// EthHeaderLen bytes, and returns the number of bytes written.
func PutEthernet(b []byte, h EthernetHeader) int {
	_ = b[EthHeaderLen-1]
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
	return EthHeaderLen
}

// errEthernetShort is a static sentinel: the truncated-frame branch must
// stay cheap enough for ParseEthernet to inline into every stage.
var errEthernetShort = errors.New("pkt: ethernet frame too short")

// ParseEthernet decodes an Ethernet II header from the start of b. Every
// stage re-reads the header it needs rather than trusting upstream state
// (exactly like the kernel), so this is among the hottest functions in the
// simulator: the success path is small enough to inline, and the array
// conversions compile to direct loads instead of copies.
func ParseEthernet(b []byte) (EthernetHeader, error) {
	if len(b) < EthHeaderLen {
		return EthernetHeader{}, errEthernetShort
	}
	return EthernetHeader{
		Dst:       MAC(b[0:6]),
		Src:       MAC(b[6:12]),
		EtherType: uint16(b[12])<<8 | uint16(b[13]),
	}, nil
}

// etherType reads the EtherType of a frame at least EthHeaderLen bytes
// long.
func etherType(b []byte) uint16 { return uint16(b[12])<<8 | uint16(b[13]) }
