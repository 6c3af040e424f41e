//go:build ignore

// gen_fuzz_corpus regenerates the committed seed corpora under
// testdata/fuzz/<Target>/ in Go's native corpus encoding. The seeds cover
// the accepting path (a valid overlay frame and its layers), boundary
// truncations, and representative corruptions the fault plane produces,
// so a fuzz run starts at the interesting frontier instead of rediscovering
// the frame format.
//
// Usage: go run gen_fuzz_corpus.go
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"prism/internal/pkt"
)

func main() {
	inner := pkt.BuildUDPFrame(pkt.UDPFrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 11111,
		Payload: []byte("fuzz-seed-payload"),
	})
	outer := pkt.Encapsulate(pkt.VXLANSpec{
		OuterSrcMAC: pkt.MAC{2, 0, 0, 1, 0, 1}, OuterDstMAC: pkt.MAC{2, 0, 0, 1, 0, 2},
		OuterSrcIP: pkt.IPv4{192, 168, 0, 1}, OuterDstIP: pkt.IPv4{192, 168, 0, 2},
		SrcPort: 49152, VNI: 42,
	}, inner)
	tcp := pkt.BuildTCPFrame(pkt.TCPFrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5201, Seq: 1, Ack: 2, Flags: pkt.TCPAck,
	})

	flip := func(b []byte, bit int) []byte {
		m := append([]byte(nil), b...)
		m[bit/8] ^= 1 << (bit % 8)
		return m
	}

	// shortTCP is tcp with an IPv4 total length of 30, re-checksummed:
	// ParseFlow accepts it, yet its total length ends inside the TCP
	// header.
	shortTCP := append([]byte(nil), tcp...)
	pkt.PutIPv4(shortTCP[pkt.EthHeaderLen:], pkt.IPv4Header{
		TotalLen: 30, TTL: 64, Protocol: pkt.ProtoTCP,
		Src: pkt.IPv4{10, 0, 0, 1}, Dst: pkt.IPv4{10, 0, 0, 2},
	})

	frames := [][]byte{
		outer,                 // accepting path
		inner,                 // not VXLAN: rejected at the UDP port check
		outer[:len(outer)-10], // truncated inner frame
		outer[:pkt.EthHeaderLen+pkt.IPv4HeaderLen],            // ends at the UDP header
		flip(outer, 12*8),                                     // corrupted outer ethertype
		flip(outer, (pkt.EthHeaderLen+2)*8),                   // corrupted outer IP total length
		flip(outer, (pkt.EthHeaderLen+pkt.IPv4HeaderLen+4)*8), // corrupted UDP length
	}
	corpora := map[string][][]byte{
		"FuzzDecapsulate": frames,
		// Every frame above, plus whole TCP frames.
		"FuzzValidatedPayloadMatchesTransportPayload": append(frames[:len(frames):len(frames)], tcp, shortTCP),
		"FuzzParseIPv4": {
			inner[pkt.EthHeaderLen:],
			inner[pkt.EthHeaderLen : pkt.EthHeaderLen+pkt.IPv4HeaderLen],
			flip(inner[pkt.EthHeaderLen:], 0),  // version/IHL nibble
			flip(inner[pkt.EthHeaderLen:], 80), // checksum field
		},
		"FuzzParseUDP": {
			inner[pkt.EthHeaderLen+pkt.IPv4HeaderLen:],
			inner[pkt.EthHeaderLen+pkt.IPv4HeaderLen : pkt.EthHeaderLen+pkt.IPv4HeaderLen+pkt.UDPHeaderLen],
			flip(inner[pkt.EthHeaderLen+pkt.IPv4HeaderLen:], 4*8), // length field
		},
		"FuzzParseTCP": {
			tcp[pkt.EthHeaderLen+pkt.IPv4HeaderLen:],
			tcp[pkt.EthHeaderLen+pkt.IPv4HeaderLen : pkt.EthHeaderLen+pkt.IPv4HeaderLen+pkt.TCPHeaderLen],
			flip(tcp[pkt.EthHeaderLen+pkt.IPv4HeaderLen:], 12*8), // data offset
		},
	}

	for target, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("%s: %d seeds\n", dir, len(seeds))
	}
}
