package par

import (
	"fmt"

	"prism/internal/ring"
	"prism/internal/sim"
)

// message is one cross-shard delivery. The (at, src, seq) triple is the
// stable ordering key that makes parallel delivery deterministic; key
// packs the sending shard's ID above its per-source send counter, so
// ordering by (at, key) is ordering by (at, src, seq).
type message struct {
	at   sim.Time // delivery time on the destination shard
	key  uint64
	link *Link
	delivery
}

// delivery is what a link hands its receiver: the frame and the sender's
// tag.
type delivery struct {
	frame []byte
	tag   uint32
}

// seqBits is the width of the send counter in a message key: a group
// holds at most 2^16 shards, each sending at most 2^48 messages.
const seqBits = 48

// Link is a unidirectional cross-shard channel with a declared minimum
// latency, carrying wire frames. Each frame travels with a tag: an opaque
// uint32 the sender computes once and the receiver gets back unchanged
// (the fabric carries the frame's route key in it, so no hop parses the
// frame again). The lookahead is a physical property of the modelled
// medium — a wire's propagation delay, an IPI's cross-core cost — and is
// what the conservative scheduler turns into parallelism: the smaller the
// fastest link, the shorter the safe window.
type Link struct {
	Src, Dst *Shard
	// Lookahead is the minimum delay of any message on this link.
	Lookahead sim.Time

	deliver func(at sim.Time, frame []byte, tag uint32)
	// bufs holds the sends of the last two windows by parity. The
	// source's home appends to bufs[Src.par] while the destination's home
	// drains the other buffer, filled in the window before, so neither
	// needs a lock.
	bufs [2][]message
	// due holds the frames and tags of deliveries already scheduled on
	// the destination engine, in dispatch order: the destination's home
	// pushes at injection and deliverFrame pops, so the scheduled event
	// carries only the link and no frame is boxed.
	due ring.FIFO[delivery]
}

// Send delivers frame and its tag to the destination shard at now+delay,
// where delay must be at least the link's lookahead — sending faster than
// the medium allows would violate the window safety argument, so it
// panics. Send must be called from event context on the source shard (now
// is the source engine's current time).
func (l *Link) Send(now, delay sim.Time, frame []byte, tag uint32) {
	if delay < l.Lookahead {
		panic(fmt.Sprintf("par: send on %s→%s with delay %v below lookahead %v",
			l.Src.Name, l.Dst.Name, delay, l.Lookahead))
	}
	s, at := l.Src, now+delay
	l.bufs[s.par] = append(l.bufs[s.par], message{at: at, key: s.key, link: l, delivery: delivery{frame, tag}})
	s.key++
	if at < s.sent {
		s.sent = at
	}
}

// Buffered reports how many sends are sitting in the link's window
// buffers, not yet drained by the destination. After a Group.Run these
// are the last window's sends, whose delivery lies beyond the horizon;
// conservation checkers count them as in-flight on the medium.
func (l *Link) Buffered() int { return len(l.bufs[0]) + len(l.bufs[1]) }
