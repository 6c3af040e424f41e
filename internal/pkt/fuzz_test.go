package pkt

import (
	"bytes"
	"os"
	"testing"
)

// The fuzz targets harden the wire-facing parsers against the fault
// plane's corrupted frames (internal/fault flips random bits before DMA):
// on arbitrary input the parsers must return an error or a result — never
// panic, never read past the buffer, and never hand back a slice that
// escapes the frame. Seed corpora live in testdata/fuzz (regenerate with
// `go run gen_fuzz_corpus.go`); CI additionally runs each target with
// -fuzz for a short smoke burst.

// fuzzInner builds the valid inner frame the generators use, so the
// mutation engine starts from the accepting path.
func fuzzInner() []byte {
	return BuildUDPFrame(UDPFrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: IPv4{10, 0, 0, 1}, DstIP: IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 11111,
		Payload: []byte("fuzz-seed-payload"),
	})
}

func fuzzOuter() []byte {
	return Encapsulate(VXLANSpec{
		OuterSrcMAC: MAC{2, 0, 0, 1, 0, 1}, OuterDstMAC: MAC{2, 0, 0, 1, 0, 2},
		OuterSrcIP: IPv4{192, 168, 0, 1}, OuterDstIP: IPv4{192, 168, 0, 2},
		SrcPort: 49152, VNI: 42,
	}, fuzzInner())
}

func FuzzDecapsulate(f *testing.F) {
	f.Add(fuzzOuter())
	f.Add(fuzzInner())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		vni, inner, err := Decapsulate(frame)
		if err != nil {
			return
		}
		if vni > 0xffffff {
			t.Fatalf("VNI %d exceeds 24 bits", vni)
		}
		// The inner frame must be a sub-slice of the input: the decapsulated
		// view can never escape the wire frame.
		if len(inner) > len(frame) {
			t.Fatalf("inner frame longer than wire frame: %d > %d", len(inner), len(frame))
		}
		if len(inner) > 0 && !sameBacking(frame, inner) {
			t.Fatalf("inner frame escaped the wire frame's backing array")
		}
		// The inner bytes must themselves survive the downstream parsers.
		_, _ = ParseFlow(inner)
		_ = IsVXLAN(inner)
	})
}

// sameBacking reports whether sub lies within outer's backing array.
func sameBacking(outer, sub []byte) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(outer); i++ {
		if &outer[i] == &sub[0] {
			return true
		}
	}
	return false
}

func FuzzParseIPv4(f *testing.F) {
	valid := fuzzInner()[EthHeaderLen:]
	f.Add(valid)
	f.Add(valid[:IPv4HeaderLen])
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseIPv4(b)
		// The per-packet parsers' shortcut must accept exactly what
		// ParseIPv4 accepts.
		if validIPv4(b) != (err == nil) {
			t.Fatalf("validIPv4 = %v, ParseIPv4 error %v", validIPv4(b), err)
		}
		if err != nil {
			return
		}
		if int(h.TotalLen) > len(b) || h.TotalLen < IPv4HeaderLen {
			t.Fatalf("accepted total length %d outside [%d, %d]", h.TotalLen, IPv4HeaderLen, len(b))
		}
		// Round-trip: re-encoding the accepted header must parse back equal
		// (modulo the checksum field, which PutIPv4 recomputes). The buffer
		// is sized to TotalLen so the length validation still holds.
		buf := make([]byte, int(h.TotalLen))
		PutIPv4(buf, h)
		h2, err := ParseIPv4(buf)
		if err != nil {
			t.Fatalf("re-encoded accepted header rejected: %v", err)
		}
		h.Checksum, h2.Checksum = 0, 0
		if h != h2 {
			t.Fatalf("round-trip mismatch:\nparsed:   %+v\nreparsed: %+v", h, h2)
		}
	})
}

func FuzzParseUDP(f *testing.F) {
	valid := fuzzInner()[EthHeaderLen+IPv4HeaderLen:]
	f.Add(valid)
	f.Add(valid[:UDPHeaderLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseUDP(b)
		if err != nil {
			return
		}
		if int(h.Length) > len(b) || h.Length < UDPHeaderLen {
			t.Fatalf("accepted UDP length %d outside [%d, %d]", h.Length, UDPHeaderLen, len(b))
		}
		var buf [UDPHeaderLen]byte
		PutUDP(buf[:], UDPHeader{SrcPort: h.SrcPort, DstPort: h.DstPort, Length: UDPHeaderLen})
		if h2, err := ParseUDP(buf[:]); err != nil || h2.SrcPort != h.SrcPort || h2.DstPort != h.DstPort {
			t.Fatalf("round-trip mismatch: %+v -> %+v (%v)", h, h2, err)
		}
	})
}

func FuzzParseTCP(f *testing.F) {
	tcp := BuildTCPFrame(TCPFrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: IPv4{10, 0, 0, 1}, DstIP: IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5201, Seq: 1, Ack: 2, Flags: TCPAck,
	})[EthHeaderLen+IPv4HeaderLen:]
	f.Add(tcp)
	f.Add(tcp[:TCPHeaderLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseTCP(b)
		if err != nil {
			return
		}
		var buf [TCPHeaderLen]byte
		PutTCP(buf[:], h)
		h2, err := ParseTCP(buf[:])
		if err != nil {
			t.Fatalf("re-encoded accepted header rejected: %v", err)
		}
		if h != h2 {
			t.Fatalf("round-trip mismatch:\nparsed:   %+v\nreparsed: %+v", h, h2)
		}
	})
}

// FuzzEncapInPlaceMatchesTwoStep holds the one-buffer encoders to their
// oracle: for any header fields, a payload of 0–2048 bytes and a dst that
// is nil, too small, exact or larger (pre-filled with stale bytes, as a
// recycled pool buffer is), EncapUDPInto and EncapTCPInto must equal
// Encapsulate(BuildUDPFrame/BuildTCPFrame(...)) byte for byte, and must
// write in place exactly when dst has the capacity.
func FuzzEncapInPlaceMatchesTwoStep(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), []byte{})
	f.Add(fuzzOuter()[:VXLANOverhead], uint16(64), uint8(2), []byte("probe"))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(2048), uint8(3), []byte{0})
	f.Add([]byte{1, 2, 3}, uint16(1460), uint8(1), []byte("x"))
	f.Fuzz(func(t *testing.T, hdr []byte, plen uint16, capMode uint8, fill []byte) {
		next := func() byte {
			if len(hdr) == 0 {
				return 0
			}
			b := hdr[0]
			hdr = hdr[1:]
			return b
		}
		mac := func() (m MAC) {
			for i := range m {
				m[i] = next()
			}
			return m
		}
		ip := func() IPv4 { return IPv4{next(), next(), next(), next()} }
		u16 := func() uint16 { return uint16(next())<<8 | uint16(next()) }
		u32 := func() uint32 { return uint32(u16())<<16 | uint32(u16()) }

		payload := make([]byte, int(plen)%2049)
		for i := range payload {
			if len(fill) > 0 {
				payload[i] = fill[i%len(fill)]
			}
		}
		vs := VXLANSpec{OuterSrcMAC: mac(), OuterDstMAC: mac(), OuterSrcIP: ip(), OuterDstIP: ip(),
			SrcPort: u16(), VNI: u32(), ID: u16()}
		udp := UDPFrameSpec{SrcMAC: mac(), DstMAC: mac(), SrcIP: ip(), DstIP: ip(),
			SrcPort: u16(), DstPort: u16(), TOS: next(), ID: u16(), Payload: payload}
		tcp := TCPFrameSpec{SrcMAC: udp.SrcMAC, DstMAC: udp.DstMAC, SrcIP: udp.SrcIP, DstIP: udp.DstIP,
			SrcPort: udp.SrcPort, DstPort: udp.DstPort, Seq: u32(), Ack: u32(), Flags: next(),
			ID: udp.ID, Payload: payload}

		// dstFor returns the destination buffer for a frame of n bytes.
		dstFor := func(n int) []byte {
			var c int
			switch capMode % 4 {
			case 0:
				return nil
			case 1:
				c = n - 1
			case 2:
				c = n
			case 3:
				c = n + 1 + int(capMode)
			}
			return bytes.Repeat([]byte{0xA5}, c)
		}
		check := func(kind string, want []byte, encode func(dst []byte) []byte) {
			dst := dstFor(len(want))
			got := encode(dst)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: one-buffer encoding differs from the two-step oracle:\n got %x\nwant %x", kind, got, want)
			}
			wantInPlace := cap(dst) >= len(want)
			if inPlace := cap(dst) > 0 && &got[0] == &dst[:1][0]; inPlace != wantInPlace {
				t.Fatalf("%s: wrote in place = %v with cap %d for a %d-byte frame", kind, inPlace, cap(dst), len(want))
			}
		}
		check("udp", Encapsulate(vs, BuildUDPFrame(udp)), func(dst []byte) []byte { return EncapUDPInto(dst, vs, udp) })
		check("tcp", Encapsulate(vs, BuildTCPFrame(tcp)), func(dst []byte) []byte { return EncapTCPInto(dst, vs, tcp) })
	})
}

// FuzzValidatedPayloadMatchesTransportPayload holds the stamped path to
// the full validation: on any frame, TransportPayload must not panic, and
// whenever ParseFlow accepts the frame — directly or inside VXLAN, as the
// NIC stage stamps it — ValidatedPayload must not panic and must return
// what TransportPayload returns: the same error outcome and the same
// slice of the frame.
func FuzzValidatedPayloadMatchesTransportPayload(f *testing.F) {
	f.Add(fuzzOuter())
	f.Add(fuzzInner())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		check := func(frame []byte) {
			want, wantErr := TransportPayload(frame)
			if _, err := ParseFlow(frame); err != nil {
				return
			}
			got, err := ValidatedPayload(frame)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("ValidatedPayload error %v, TransportPayload error %v", err, wantErr)
			}
			if err == nil && (!bytes.Equal(got, want) || len(got) > 0 && &got[0] != &want[0]) {
				t.Fatalf("ValidatedPayload = %x, TransportPayload = %x", got, want)
			}
		}
		check(frame)
		if inner, _, err := InnerFlow(frame); err == nil {
			check(inner)
		}
	})
}

// TestFuzzCorpusCommitted guards the committed seed corpus: each target
// must ship at least the generator's seeds so `go test` (without -fuzz)
// always replays them.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzDecapsulate", "FuzzParseIPv4", "FuzzParseUDP", "FuzzParseTCP",
		"FuzzValidatedPayloadMatchesTransportPayload"} {
		dir := "testdata/fuzz/" + target
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Errorf("%s: no committed corpus in %s (regenerate with `go run gen_fuzz_corpus.go`): %v", target, dir, err)
		}
	}
}

// TestDecapsulateCorruptionSweep mirrors the fault plane's exact
// corruption model deterministically: every single-bit flip of a valid
// overlay frame must either decode or fail cleanly — no panic, no
// over-read — and truncations at every length must fail cleanly.
func TestDecapsulateCorruptionSweep(t *testing.T) {
	frame := fuzzOuter()
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := bytes.Clone(frame)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, inner, err := Decapsulate(mut); err == nil && len(inner) > len(mut) {
			t.Fatalf("bit %d: inner frame over-read", bit)
		}
	}
	for n := 0; n <= len(frame); n++ {
		_, _, _ = Decapsulate(frame[:n])
		_, _ = ParseFlow(frame[:n])
	}
}
