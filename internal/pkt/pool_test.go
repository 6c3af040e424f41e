package pkt

import (
	"bytes"
	"testing"
)

func TestFramePoolSizeClasses(t *testing.T) {
	var p FramePool
	f := p.Get(100)
	if len(f.B) != 100 {
		t.Fatalf("len = %d, want 100", len(f.B))
	}
	if cap(f.B) != 128 {
		t.Fatalf("cap = %d, want smallest class 128", cap(f.B))
	}
	backing := &f.B[0]
	f.Release()

	// Same class returns the same buffer.
	g := p.Get(128)
	if &g.B[0] != backing {
		t.Error("Get after Release did not reuse the freed buffer")
	}
	g.Release()

	// A larger request takes a larger class, leaving the freed one alone.
	h := p.Get(129)
	if cap(h.B) != 256 {
		t.Errorf("cap = %d, want 256", cap(h.B))
	}
	h.Release()
}

func TestFramePoolOverLargeUnpooled(t *testing.T) {
	var p FramePool
	f := p.Get(10000)
	if len(f.B) != 10000 {
		t.Fatalf("len = %d", len(f.B))
	}
	// Release of an unpooled frame must not panic; the buffer just drops
	// to the GC.
	f.Release()
}

func TestFrameDoublePutPanics(t *testing.T) {
	var p FramePool
	f := p.Get(64)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	f.Release()
}

func TestSKBPoolRecyclesAndBumpsGen(t *testing.T) {
	var p SKBPool
	s := p.Get()
	gen := s.Gen()
	s.ID = 7
	s.Stage = 3
	s.Parsed = true
	p.Put(s)
	r := p.Get()
	if r != s {
		t.Fatal("pool did not recycle the freed SKB")
	}
	if r.Gen() != gen+1 {
		t.Errorf("gen = %d, want %d", r.Gen(), gen+1)
	}
	if r.ID == 7 || r.Stage == 3 || r.Parsed {
		t.Error("recycled SKB kept stale metadata")
	}
}

func TestSKBDoublePutPanics(t *testing.T) {
	var p SKBPool
	s := p.Get()
	p.Put(s)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	p.Put(s)
}

func TestSKBFreeReleasesFrame(t *testing.T) {
	var sp SKBPool
	var fp FramePool
	f := fp.Get(256)
	backing := &f.B[0]
	s := sp.Get()
	s.SetFrame(f)
	if &s.Data[0] != backing {
		t.Fatal("SetFrame did not expose the frame bytes as Data")
	}
	s.Free()
	// Both the SKB and its frame must be back on their free lists.
	if g := fp.Get(256); &g.B[0] != backing {
		t.Error("Free did not return the frame to its pool")
	}
	if sp.Get() != s {
		t.Error("Free did not return the SKB to its pool")
	}
}

func TestSKBTakeFrameTransfersOwnership(t *testing.T) {
	var sp SKBPool
	var fp FramePool
	f := fp.Get(256)
	s := sp.Get()
	s.SetFrame(f)
	got := s.TakeFrame()
	if got != f {
		t.Fatal("TakeFrame returned a different frame")
	}
	s.Free() // must not release the taken frame
	if fp.Get(256) == f {
		t.Error("Free released a frame that had been taken")
	}
	got.Release() // the new owner returns it
}

func TestPoolFreeUnpooledSKB(t *testing.T) {
	// SKBs built directly (tests, cross-shard inject) have no owner pool;
	// Free must be a safe no-op for them.
	s := &SKB{Data: []byte{1, 2, 3}}
	s.Free()
}

// TestDecapsulatePaddedFrame is the trailing-bytes aliasing regression
// test: an outer frame padded past its IP datagram (Ethernet's 60-byte
// minimum does this to small packets) must decapsulate to the inner frame
// alone, with the padding sliced off by the outer UDP length rather than
// inherited from the wire length.
func TestDecapsulatePaddedFrame(t *testing.T) {
	payload := []byte("ping")
	inner := BuildUDPFrame(UDPFrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1000, DstPort: 2000, Payload: payload,
	})
	outer := Encapsulate(VXLANSpec{
		OuterSrcMAC: macB, OuterDstMAC: macA,
		OuterSrcIP: ipB, OuterDstIP: ipA, SrcPort: 3, VNI: 7,
	}, inner)

	padded := append(append([]byte{}, outer...), make([]byte, 18)...)
	_, got, err := Decapsulate(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Fatalf("inner = %d bytes, want %d (padding leaked through)", len(got), len(inner))
	}
	p, err := TransportPayload(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload) {
		t.Errorf("payload = %q, want %q", p, payload)
	}

	// A truncated outer UDP length must be rejected, not sliced negative.
	bad := append([]byte{}, outer...)
	udpOff := EthHeaderLen + IPv4HeaderLen
	bad[udpOff+4], bad[udpOff+5] = 0, UDPHeaderLen+VXLANHeaderLen-1
	if _, _, err := Decapsulate(bad); err == nil {
		t.Error("Decapsulate accepted outer UDP length too short for VXLAN")
	}
}

func TestAppendEncodersReuseBuffer(t *testing.T) {
	sp := UDPFrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, Payload: []byte("abc"),
	}
	want := BuildUDPFrame(sp)
	scratch := make([]byte, 0, 2048)
	got := AppendUDPFrame(scratch[:0], sp)
	if !bytes.Equal(got, want) {
		t.Error("AppendUDPFrame differs from BuildUDPFrame")
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("AppendUDPFrame did not reuse the scratch buffer")
	}

	vs := VXLANSpec{OuterSrcMAC: macB, OuterDstMAC: macA, OuterSrcIP: ipB, OuterDstIP: ipA, SrcPort: 3, VNI: 7}
	wantOuter := Encapsulate(vs, want)
	outerScratch := make([]byte, 0, 2048)
	gotOuter := EncapUDPInto(outerScratch, vs, sp)
	if !bytes.Equal(gotOuter, wantOuter) {
		t.Error("EncapUDPInto differs from Encapsulate")
	}
	if &gotOuter[0] != &outerScratch[:1][0] {
		t.Error("EncapUDPInto did not reuse the scratch buffer")
	}
}

func TestWireBufsSizeClasses(t *testing.T) {
	var l WireBufs
	for _, tc := range []struct{ n, cap int }{{1, 128}, {128, 128}, {129, 256}, {1500, 2048}, {4096, 4096}, {5000, 5000}} {
		if b := l.Get(tc.n); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
	}
	if gets, puts := l.Counts(); gets != 6 || puts != 0 {
		t.Errorf("counts %d/%d, want 6/0", gets, puts)
	}
}

func TestWireBufsReuse(t *testing.T) {
	var l, other WireBufs
	b := l.Get(100)
	backing := &b[0]
	// A buffer goes back into whichever list its terminating owner holds.
	other.Put(b)
	if other.Free() != 1 || l.Free() != 0 {
		t.Fatalf("free %d/%d after a Put into the other list, want 0/1", l.Free(), other.Free())
	}
	// Any request of the same class reuses it, at the requested length.
	c := other.Get(60)
	if &c[0] != backing || len(c) != 60 || cap(c) != 128 {
		t.Errorf("Get after Put: reused %v, len %d, cap %d; want the put buffer at len 60, cap 128",
			&c[0] == backing, len(c), cap(c))
	}
	// Another class does not.
	if d := other.Get(200); cap(d) != 256 || other.Free() != 0 {
		t.Errorf("Get(200): cap %d, %d free", cap(d), other.Free())
	}
	if gets, puts := other.Counts(); gets != 2 || puts != 1 {
		t.Errorf("counts %d/%d, want 2/1", gets, puts)
	}
}

func TestWireBufsSurplusLeftToGC(t *testing.T) {
	var l WireBufs
	for _, b := range [][]byte{make([]byte, 100), l.Get(5000), make([]byte, 64, 200)} {
		l.Put(b)
	}
	if l.Free() != 0 {
		t.Fatalf("%d foreign buffers kept, want none", l.Free())
	}
	// The Puts still count: the caller gave the buffers up.
	if gets, puts := l.Counts(); gets != 1 || puts != 3 {
		t.Errorf("counts %d/%d, want 1/3", gets, puts)
	}
	// A class capacity from anywhere is a wire buffer like any other.
	l.Put(make([]byte, 10, 512))
	if l.Free() != 1 || cap(l.Get(300)) != 512 {
		t.Error("a 512-byte buffer was not filed under its class")
	}
	// A full class leaves the surplus to the GC.
	for i := 0; i < wireFreeMax+5; i++ {
		l.Put(make([]byte, 128))
	}
	if l.Free() != wireFreeMax {
		t.Errorf("%d buffers kept after %d Puts, want the bound %d", l.Free(), wireFreeMax+5, wireFreeMax)
	}
}

func TestWireBufsDoublePutPanics(t *testing.T) {
	if !PoolDebug {
		t.Skip("double-put detection needs -tags=pooldebug")
	}
	var l WireBufs
	b := l.Get(60)
	b[0] = 1
	l.Put(b)
	if b[0] != 0xDB || b[:cap(b)][127] != 0xDB { // pooldebug's poison byte
		t.Error("Put did not poison the buffer")
	}
	// A buffer left to the GC is poisoned too.
	foreign := []byte{1, 2, 3}
	l.Put(foreign)
	if foreign[0] != 0xDB {
		t.Error("Put did not poison a buffer it left to the GC")
	}
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	l.Put(b)
}
