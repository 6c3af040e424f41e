package pkt

// Pooling gives the hot path DPDK-mempool-style object reuse: the NIC Gets
// an SKB plus a frame buffer per received packet, every intermediate stage
// hands the same SKB on, and exactly one stage — whichever delivers, drops
// or absorbs the packet — returns it with Free. Both pools are engine-local
// like everything else on the datapath, so there are no locks; build with
// -tags=pooldebug to poison freed buffers and catch use-after-put.
// Ownership rules are documented in DESIGN.md.

// frameClasses are the frame free-list size classes, in bytes. Get rounds
// the requested length up to the next class so a 60-byte ping and a 92-byte
// probe reuse the same buffers; requests beyond the largest class fall back
// to one-off heap buffers that are not recycled.
var frameClasses = [...]int{128, 256, 512, 1024, 2048, 4096}

// Frame is a pooled frame buffer. B is the usable slice (len = requested
// size, cap = the size class); the handle travels with the buffer so any
// holder can Release it without knowing which pool it came from.
type Frame struct {
	B     []byte
	pool  *FramePool
	class int
	freed bool
}

// Release returns the frame to its pool. Pool-less frames (the over-sized
// fallback) are left to the GC. Releasing twice panics: a double-put would
// hand the same buffer to two owners.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if f.freed {
		panic("pkt: frame double-put")
	}
	f.freed = true
	if f.pool == nil {
		return
	}
	poisonFrame(f)
	p := f.pool
	p.puts++
	p.free[f.class] = append(p.free[f.class], f)
}

// FramePool recycles frame buffers through per-size-class free lists. The
// gets/puts counters track pooled-class buffers only (over-sized fallback
// frames are GC-owned and excluded from both sides), so Outstanding is the
// exact leak count at any quiescent point.
type FramePool struct {
	free [len(frameClasses)][]*Frame

	gets uint64
	puts uint64
}

// Outstanding returns how many pooled frame buffers are checked out (Get
// minus Release). Zero at the end of a drained run means no leaks.
func (p *FramePool) Outstanding() int { return int(p.gets - p.puts) }

// Get returns a frame buffer of length n, reusing a freed one of the same
// size class when available.
func (p *FramePool) Get(n int) *Frame {
	for c, size := range frameClasses {
		if n <= size {
			p.gets++
			if l := p.free[c]; len(l) > 0 {
				f := l[len(l)-1]
				l[len(l)-1] = nil
				p.free[c] = l[:len(l)-1]
				f.freed = false
				f.B = f.B[:n]
				return f
			}
			return &Frame{B: make([]byte, n, size), pool: p, class: c}
		}
	}
	return &Frame{B: make([]byte, n)}
}

// SKBPool recycles SKBs through a free list. Put resets every field and
// bumps the generation counter so stale references (the NIC's GRO head
// across a flush gap) can detect that their SKB has been recycled.
type SKBPool struct {
	free []*SKB

	gets uint64
	puts uint64
}

// Outstanding returns how many SKBs are checked out (Get minus Put). Zero
// at the end of a drained run means every stage honoured the single-Free
// ownership rule.
func (p *SKBPool) Outstanding() int { return int(p.gets - p.puts) }

// Get returns a zeroed SKB owned by this pool.
func (p *SKBPool) Get() *SKB {
	p.gets++
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		s.pooled = false
		return s
	}
	return &SKB{owner: p}
}

// Put returns s to the free list, releasing its frame buffer first. Putting
// twice, or into a pool that does not own the SKB, panics.
func (p *SKBPool) Put(s *SKB) {
	if s.owner != p {
		panic("pkt: SKB returned to a foreign pool")
	}
	if s.pooled {
		panic("pkt: SKB double-put")
	}
	p.puts++
	if s.frame != nil {
		s.frame.Release()
	}
	gen := s.gen + 1
	*s = SKB{owner: p, gen: gen, pooled: true}
	poisonSKB(s)
	p.free = append(p.free, s)
}

// Free returns the SKB — and the frame buffer backing it, if any — to their
// pools. The stage that delivers, drops or absorbs a packet owns it and
// must Free exactly once; SKBs built without a pool (tests, generators,
// synthetic testnet frames) only release their frame.
func (s *SKB) Free() {
	if s.owner == nil {
		if s.frame != nil {
			s.frame.Release()
			s.frame = nil
		}
		return
	}
	s.owner.Put(s)
}

// Gen identifies this incarnation of a pooled SKB: it increments on every
// Put, so a holder of a retained reference can verify the SKB it remembers
// has not been recycled under it.
func (s *SKB) Gen() uint32 { return s.gen }

// SetFrame attaches a pooled frame buffer as the SKB's backing storage,
// transferring its ownership to the SKB.
func (s *SKB) SetFrame(f *Frame) {
	s.frame = f
	s.Data = f.B
}

// TakeFrame detaches and returns the backing frame buffer (nil when the SKB
// is not frame-backed), transferring ownership to the caller. Delivery uses
// it: the payload outlives the SKB by one application callback.
func (s *SKB) TakeFrame() *Frame {
	f := s.frame
	s.frame = nil
	return f
}

// WireBufs is a single-owner free list of wire buffers: plain byte slices
// whose ownership travels with the slice, for frames that leave their
// shard. A cluster node Gets a request or reply buffer from its list, a
// cross-shard link carries the slice, and the node that terminates the
// frame Puts it into its own list, so each list is only ever touched by
// its owner. Get rounds up to FramePool's size classes and Put files a
// buffer by its capacity, so any list takes back any list's buffers.
// Lists that trade buffers drift apart — a node whose host drops requests
// takes back more than it hands out — so each class keeps at most
// wireFreeMax buffers; Put leaves the surplus, and any buffer whose
// capacity is not a class, to the GC. Every Get and Put is counted, so
// the gets minus the puts over all the lists that trade buffers is the
// number held outside them. Build with -tags=pooldebug to poison put
// buffers and panic on a second Put of one into the same list.
type WireBufs struct {
	free [len(frameClasses)][][]byte

	gets uint64
	puts uint64
	// held records, under pooldebug only, the buffers on the free lists
	// by their first byte.
	held map[*byte]struct{}
}

// wireFreeMax bounds each size class of a WireBufs free list.
const wireFreeMax = 32

// Get returns an n-byte buffer, reusing a put one of the same size class
// when there is one. The caller owns it until it Puts it somewhere.
func (l *WireBufs) Get(n int) []byte {
	l.gets++
	for c, size := range frameClasses {
		if n <= size {
			if f := l.free[c]; len(f) > 0 {
				b := f[len(f)-1]
				f[len(f)-1] = nil
				l.free[c] = f[:len(f)-1]
				l.debugGet(b)
				return b[:n]
			}
			return make([]byte, n, size)
		}
	}
	return make([]byte, n)
}

// Put hands b back to the list; the caller must not touch it afterwards.
func (l *WireBufs) Put(b []byte) {
	l.puts++
	b = b[:cap(b)]
	poisonWire(b)
	for c, size := range frameClasses {
		if cap(b) == size && len(l.free[c]) < wireFreeMax {
			l.debugPut(b)
			l.free[c] = append(l.free[c], b)
			return
		}
	}
}

// Counts reports how many buffers the list has handed out and taken back.
func (l *WireBufs) Counts() (gets, puts uint64) { return l.gets, l.puts }

// Free reports how many buffers are waiting on the list.
func (l *WireBufs) Free() int {
	n := 0
	for _, f := range l.free {
		n += len(f)
	}
	return n
}
