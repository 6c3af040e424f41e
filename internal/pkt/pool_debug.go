//go:build pooldebug

package pkt

// PoolDebug reports whether use-after-put poisoning is compiled in.
const PoolDebug = true

// poisonByte fills freed buffers. 0xDB reads as garbage everywhere a parser
// looks: ethertype 0xDBDB is not IPv4, lengths are absurd, probe timestamps
// are in the far future — so a use-after-put fails loudly instead of
// silently reprocessing stale bytes.
const poisonByte = 0xDB

func poisonFrame(f *Frame) {
	b := f.B[:cap(f.B)]
	for i := range b {
		b[i] = poisonByte
	}
}

// poisonedData is what a freed SKB's Data points at: any read returns
// poison, and the headroom is far too short for a real frame, so parsers
// reject it immediately.
var poisonedData = []byte{poisonByte, poisonByte, poisonByte, poisonByte}

func poisonSKB(s *SKB) {
	s.Data = poisonedData
	s.ID = ^uint64(0)
	s.Stage = -1
}

// poisonWire fills a put wire buffer, its whole capacity.
func poisonWire(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// debugPut panics if b is on the list already: a second Put would hand
// it to two owners.
func (l *WireBufs) debugPut(b []byte) {
	if l.held == nil {
		l.held = make(map[*byte]struct{})
	}
	if _, dup := l.held[&b[0]]; dup {
		panic("pkt: wire buffer double-put")
	}
	l.held[&b[0]] = struct{}{}
}

// debugGet forgets a buffer leaving the list.
func (l *WireBufs) debugGet(b []byte) { delete(l.held, &b[0]) }
