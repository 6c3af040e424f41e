package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prism/internal/sim"
)

// ProbeLen is the minimum payload length carrying a latency probe: an
// 8-byte sequence number followed by an 8-byte virtual send timestamp —
// the same trick sockperf uses to compute per-packet latency.
const ProbeLen = 16

// PutProbe writes seq and sentAt at the start of payload, which must be at
// least ProbeLen bytes.
func PutProbe(payload []byte, seq uint64, sentAt sim.Time) {
	_ = payload[ProbeLen-1]
	binary.BigEndian.PutUint64(payload[0:8], seq)
	binary.BigEndian.PutUint64(payload[8:16], uint64(sentAt))
}

// ParseProbe extracts the probe fields written by PutProbe.
func ParseProbe(payload []byte) (seq uint64, sentAt sim.Time, err error) {
	if len(payload) < ProbeLen {
		return 0, 0, fmt.Errorf("pkt: payload too short for probe: %d bytes", len(payload))
	}
	return binary.BigEndian.Uint64(payload[0:8]),
		sim.Time(binary.BigEndian.Uint64(payload[8:16])), nil
}

// TransportPayload returns the application payload of a plain (already
// decapsulated) UDP or TCP frame.
func TransportPayload(frame []byte) ([]byte, error) {
	eth, err := ParseEthernet(frame)
	if err != nil {
		return nil, err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return nil, fmt.Errorf("pkt: no transport payload in ethertype 0x%04x", eth.EtherType)
	}
	ip, err := ParseIPv4(frame[EthHeaderLen:])
	if err != nil {
		return nil, err
	}
	tOff := EthHeaderLen + IPv4HeaderLen
	switch ip.Protocol {
	case ProtoUDP:
		u, err := ParseUDP(frame[tOff:])
		if err != nil {
			return nil, err
		}
		return frame[tOff+UDPHeaderLen : tOff+int(u.Length)], nil
	case ProtoTCP:
		end := EthHeaderLen + int(ip.TotalLen)
		if end > len(frame) {
			end = len(frame)
		}
		if end < tOff+TCPHeaderLen {
			return nil, errTCPTruncated
		}
		return frame[tOff+TCPHeaderLen : end], nil
	default:
		return nil, fmt.Errorf("pkt: protocol %d has no transport payload", ip.Protocol)
	}
}

// errTCPTruncated rejects a TCP segment whose IPv4 total length or frame
// ends inside its header. ParseFlow accepts such a frame: it reads the
// ports from the buffer without checking them against the total length.
var errTCPTruncated = errors.New("pkt: tcp segment ends inside its header")

// ValidatedPayload is TransportPayload for a frame ParseFlow accepted:
// it trusts the headers that parse validated and only slices the payload
// out of them, so a stage holding a stamped SKB need not check the IPv4
// header again. On a frame ParseFlow rejects its result is undefined. It
// still fails a TCP segment that ends inside its header, as
// TransportPayload does.
func ValidatedPayload(frame []byte) ([]byte, error) {
	const tOff = EthHeaderLen + IPv4HeaderLen
	if frame[EthHeaderLen+9] == ProtoUDP {
		n := int(frame[tOff+4])<<8 | int(frame[tOff+5])
		return frame[tOff+UDPHeaderLen : tOff+n], nil
	}
	end := min(EthHeaderLen+(int(frame[EthHeaderLen+2])<<8|int(frame[EthHeaderLen+3])), len(frame))
	if end < tOff+TCPHeaderLen {
		return nil, errTCPTruncated
	}
	return frame[tOff+TCPHeaderLen : end], nil
}
