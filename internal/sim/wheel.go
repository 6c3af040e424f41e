package sim

import (
	"fmt"
	"math/bits"
)

// Hierarchical timing wheel — the engine's event queue.
//
// # Layout
//
// A wide near wheel plus five coarse wheels. An event at absolute time At
// is filed by its XOR distance from the wheel reference `cur`: within
// 2048 ns of the reference's block it lands on the near wheel — 2048
// one-nanosecond slots indexed by At's low 11 bits — and beyond that on
// coarse level l in {0..4}, 256 slots of width 2^(11+8l) ns indexed by
// (At >> (11+8l)) & 255, where l is selected by the highest bit in which
// At differs from the reference. Events differing above bit 50 — more
// than ~26 virtual days out — go to an unsorted overflow FIFO. The near
// wheel is sized so the datapath's common case (delays of a few hundred
// nanoseconds to a couple of microseconds: stage service times, wire and
// IRQ delays) schedules and dispatches without touching a coarse level,
// while its two pointer arrays (32 KiB) stay small enough that an engine
// per par shard costs about 53 KiB rather than 149 KiB; longer delays
// take one cascade through coarse level 0.
//
// # Ordering
//
// Each slot is an intrusive singly-linked FIFO of *Event reusing the
// engine's free-list records. Every insertion appends, and seq increases
// monotonically per schedule, so a slot list is always seq-ascending.
// Near slots are one nanosecond wide: within cur's 2048 ns block a slot
// holds exactly one timestamp, so its FIFO is exactly (At, seq) order and
// the head of the lowest occupied near slot is the global minimum.
//
// # Cascade rule
//
// When the near wheel drains, the earliest occupied slot of the lowest
// occupied coarse level is removed whole, the reference advances to that
// slot's start time, and the slot's list is re-filed in order. Every
// event lands strictly finer (its time differs from the slot start only
// below the slot's width), re-appending preserves the seq-ascending
// property, and the reference move is safe: the slot start shares all
// bits above the slot's level with the old reference, so no other pending
// event changes level or slot. Repeating the rule funnels the earliest
// slot down to the near wheel in at most coarseLevels steps. When all
// wheels are empty the overflow list cascades the same way: the reference
// jumps to the earliest overflow timestamp and every event within wheel
// span is re-filed, in list order (seq-ascending, so FIFO survives).
//
// The reference only moves forward, inside takeNext, and only to the
// start of a slot that precedes every pending event — never past the
// clock's next dispatch. Scheduling requires At >= now >= cur, so a fresh
// event can never land behind the reference; when the queue drains
// completely, takeNext re-anchors the reference at the clock for the same
// reason.
//
// Cancellation is O(1) and lazy: the event is flagged dead and its record
// is recycled when a scan or cascade next walks its slot.

const (
	// Near wheel: 2048 slots of 1 ns.
	nearBits  = 11
	nearSlots = 1 << nearBits
	nearMask  = nearSlots - 1
	nearWords = nearSlots / 64 // 32: one summary word covers them all

	// Coarse wheels: 256 slots each, widths 2^11 … 2^43 ns.
	coarseBits   = 8
	coarseSlots  = 1 << coarseBits
	coarseMask   = coarseSlots - 1
	coarseWords  = coarseSlots / 64
	coarseLevels = 5

	// wheelSpan is the number of low bits of (At ^ cur) the wheels cover;
	// events differing from the reference at or above this bit overflow.
	wheelSpan = nearBits + coarseBits*coarseLevels // 51
)

// nearWheel is the 1 ns-resolution wheel with a two-tier occupancy bitmap:
// one bit per slot and one summary bit per 64-slot word, so the earliest
// occupied slot is found with two TrailingZeros.
type nearWheel struct {
	head   [nearSlots]*Event
	tail   [nearSlots]*Event
	occ    [nearWords]uint64
	occSum uint32 // bit w set iff occ[w] != 0
}

// The near wheel's summary is a single uint32: growing nearBits past 11
// needs a wider summary word.
var _ [32 - nearWords]struct{}

// firstSlot returns the lowest occupied slot index. The caller guarantees
// the wheel is nonempty (levelMask bit 0 set). No wrap handling is
// needed: every occupied slot is at or past the reference's index (see
// the cascade rule above).
func (lv *nearWheel) firstSlot() int {
	w := bits.TrailingZeros32(lv.occSum)
	return w<<6 | bits.TrailingZeros64(lv.occ[w])
}

// coarseWheel is one 256-slot wheel with a single summary word over its
// four bitmap words.
type coarseWheel struct {
	head   [coarseSlots]*Event
	tail   [coarseSlots]*Event
	occ    [coarseWords]uint64
	occSum uint32 // bit w set iff occ[w] != 0
}

// firstSlot returns the lowest occupied slot index; the caller guarantees
// the level is nonempty.
func (lv *coarseWheel) firstSlot() int {
	w := bits.TrailingZeros32(lv.occSum)
	return w<<6 | bits.TrailingZeros64(lv.occ[w])
}

// pushNear appends ev to near slot i.
func (e *Engine) pushNear(i int, ev *Event) {
	lv := &e.near
	ev.next = nil
	if lv.tail[i] == nil {
		lv.head[i] = ev
		lv.occ[i>>6] |= 1 << (uint(i) & 63)
		lv.occSum |= 1 << uint(i>>6)
		e.levelMask |= 1
	} else {
		lv.tail[i].next = ev
	}
	lv.tail[i] = ev
}

// clearNear marks near slot i empty, dropping the levelMask bit when the
// whole wheel emptied.
func (e *Engine) clearNear(i int) {
	lv := &e.near
	w := i >> 6
	lv.occ[w] &^= 1 << (uint(i) & 63)
	if lv.occ[w] == 0 {
		lv.occSum &^= 1 << uint(w)
		if lv.occSum == 0 {
			e.levelMask &^= 1
		}
	}
}

// pushCoarseAt appends ev to slot i of coarse level l.
func (e *Engine) pushCoarseAt(l, i int, ev *Event) {
	lv := &e.coarse[l]
	ev.next = nil
	if lv.tail[i] == nil {
		lv.head[i] = ev
		lv.occ[i>>6] |= 1 << (uint(i) & 63)
		lv.occSum |= 1 << uint(i>>6)
		e.levelMask |= 2 << uint(l)
	} else {
		lv.tail[i].next = ev
	}
	lv.tail[i] = ev
}

// clearCoarse marks slot i of coarse level l empty, dropping the level's
// mask bit when it emptied.
func (e *Engine) clearCoarse(l, i int) {
	lv := &e.coarse[l]
	w := i >> 6
	lv.occ[w] &^= 1 << (uint(i) & 63)
	if lv.occ[w] == 0 {
		lv.occSum &^= 1 << uint(w)
		if lv.occSum == 0 {
			e.levelMask &^= 2 << uint(l)
		}
	}
}

// coarseLevelOf maps the XOR distance d (>= nearSlots, below the overflow
// span) to the coarse level covering it.
func coarseLevelOf(d uint64) int {
	return (bits.Len64(d) - nearBits - 1) / coarseBits
}

// push files ev according to At's distance from the reference. Appending
// keeps slot lists seq-ascending.
func (e *Engine) push(ev *Event) {
	d := uint64(ev.At ^ e.cur)
	if d < nearSlots {
		e.pushNear(int(uint64(ev.At)&nearMask), ev)
		return
	}
	if d>>wheelSpan != 0 {
		e.pushOverflow(ev)
		return
	}
	l := coarseLevelOf(d)
	i := int((uint64(ev.At) >> uint(nearBits+l*coarseBits)) & coarseMask)
	e.pushCoarseAt(l, i, ev)
}

// pushOverflow appends ev to the overflow FIFO.
func (e *Engine) pushOverflow(ev *Event) {
	ev.next = nil
	if e.ofTail == nil {
		e.ofHead = ev
	} else {
		e.ofTail.next = ev
	}
	e.ofTail = ev
}

// takeNext removes and returns the earliest live event, cascading coarse
// slots toward the near wheel as the search narrows. It returns nil only
// when nothing is pending, after re-anchoring the reference at the clock.
func (e *Engine) takeNext() *Event {
	for {
		if e.levelMask&1 != 0 {
			lv := &e.near
			i := lv.firstSlot()
			ev := lv.head[i]
			lv.head[i] = ev.next
			if ev.next == nil {
				lv.tail[i] = nil
				e.clearNear(i)
			}
			ev.next = nil
			if ev.dead {
				e.release(ev)
				continue
			}
			return ev
		}
		if e.cascade() {
			continue
		}
		// Nothing pending anywhere. Re-anchor at the clock so events
		// scheduled after an exhausted far-future cascade still land
		// at or ahead of the reference.
		e.cur = e.now
		return nil
	}
}

// cascade redistributes the earliest occupied coarse slot one step finer,
// advancing the wheel reference to the slot's start. It reports false
// when every wheel and the overflow list are empty.
func (e *Engine) cascade() bool {
	if e.levelMask == 0 {
		return e.cascadeOverflow()
	}
	l := bits.TrailingZeros32(e.levelMask >> 1)
	lv := &e.coarse[l]
	i := lv.firstSlot()
	head := lv.head[i]
	lv.head[i], lv.tail[i] = nil, nil
	e.clearCoarse(l, i)
	shift := uint(nearBits + l*coarseBits)
	blockMask := Time(1)<<(shift+coarseBits) - 1
	e.cur = e.cur&^blockMask | Time(i)<<shift
	for head != nil {
		ev := head
		head = ev.next
		if ev.dead {
			ev.next = nil
			e.release(ev)
			continue
		}
		e.push(ev)
	}
	return true
}

// cascadeOverflow jumps the reference to the earliest live overflow
// timestamp and re-files every overflow event, in order; events still
// beyond the wheel span re-enter the overflow list. Cancelled records are
// collected on the way. Reports false when no live event remains.
func (e *Engine) cascadeOverflow() bool {
	if e.ofHead == nil {
		return false
	}
	var head, tail *Event
	min := Time(-1)
	for ev := e.ofHead; ev != nil; {
		next := ev.next
		if ev.dead {
			ev.next = nil
			e.release(ev)
		} else {
			if min < 0 || ev.At < min {
				min = ev.At
			}
			ev.next = nil
			if tail == nil {
				head = ev
			} else {
				tail.next = ev
			}
			tail = ev
		}
		ev = next
	}
	e.ofHead, e.ofTail = nil, nil
	if head == nil {
		return false
	}
	e.cur = min
	for ev := head; ev != nil; {
		next := ev.next
		e.push(ev)
		ev = next
	}
	return true
}

// scanMin finds the earliest live event without advancing the wheel
// reference, so it is safe between dispatches (RunUntil peeks across
// barrier windows where new events may still arrive earlier than the
// current minimum). Cancelled records encountered on the way are unlinked
// and recycled.
func (e *Engine) scanMin() *Event {
	for {
		// Near wheel: the first occupied slot holds a single timestamp
		// in FIFO order, so the first live head is the global minimum.
		if e.levelMask&1 != 0 {
			lv := &e.near
			i := lv.firstSlot()
			ev := lv.head[i]
			if !ev.dead {
				return ev
			}
			lv.head[i] = ev.next
			if ev.next == nil {
				lv.tail[i] = nil
				e.clearNear(i)
			}
			ev.next = nil
			e.release(ev)
			continue
		}
		if e.levelMask == 0 {
			return e.overflowMin()
		}
		// Coarse levels: slots mix timestamps, so take the minimum of
		// the first occupied slot — disjoint ascending slot ranges and
		// the level hierarchy make it the global minimum. A slot that
		// held only cancelled events empties here; rescan.
		l := bits.TrailingZeros32(e.levelMask >> 1)
		lv := &e.coarse[l]
		if best := e.slotMin(l, lv, lv.firstSlot()); best != nil {
			return best
		}
	}
}

// slotMin unlinks cancelled events from slot i of coarse level l and
// returns the live event with the smallest (At, seq), or nil if the slot
// empties. The list is seq-ascending, so among equal timestamps the first
// found wins.
func (e *Engine) slotMin(l int, lv *coarseWheel, i int) *Event {
	var best, prev *Event
	for ev := lv.head[i]; ev != nil; {
		next := ev.next
		if ev.dead {
			if prev == nil {
				lv.head[i] = next
			} else {
				prev.next = next
			}
			if next == nil {
				lv.tail[i] = prev
			}
			ev.next = nil
			e.release(ev)
		} else {
			if best == nil || ev.At < best.At {
				best = ev
			}
			prev = ev
		}
		ev = next
	}
	if lv.head[i] == nil {
		e.clearCoarse(l, i)
		return nil
	}
	return best
}

// overflowMin returns the live overflow event with the smallest (At, seq),
// collecting cancelled records, or nil when none remain.
func (e *Engine) overflowMin() *Event {
	var best, prev *Event
	for ev := e.ofHead; ev != nil; {
		next := ev.next
		if ev.dead {
			if prev == nil {
				e.ofHead = next
			} else {
				prev.next = next
			}
			if next == nil {
				e.ofTail = prev
			}
			ev.next = nil
			e.release(ev)
		} else {
			if best == nil || ev.At < best.At {
				best = ev
			}
			prev = ev
		}
		ev = next
	}
	return best
}

// Batch is an insertion cursor for scheduling a run of CallAt events at
// nondecreasing timestamps with one wheel insert run: consecutive events
// sharing a timestamp append straight to the cached slot tail instead of
// re-deriving wheel and index. This is how the parallel runtime injects a
// barrier window's cross-shard messages — one cursor pass instead of N
// independent queue pushes.
//
// A cursor is only valid while the engine is between dispatches: any
// Step/Run in between may move the wheel reference and invalidate the
// cached slot. Obtaining a cursor is free; take a fresh one per run.
type Batch struct {
	e     *Engine
	tailp **Event
	last  Time
	ok    bool
}

// BeginBatch returns an insertion cursor for a nondecreasing run of
// CallAt schedules.
func (e *Engine) BeginBatch() Batch { return Batch{e: e} }

// CallAt schedules fn(t, a1, a2) at absolute time t, exactly like
// Engine.CallAt but through the batch cursor. Times must be nondecreasing
// across one cursor's calls; interleaving with the engine's own schedule
// calls is allowed and keeps global FIFO order (seq is shared).
func (b *Batch) CallAt(t Time, fn func(Time, any, any), a1, a2 any) *Event {
	e := b.e
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if b.ok && t < b.last {
		panic(fmt.Sprintf("sim: batch times must be nondecreasing (%v after %v)", t, b.last))
	}
	ev := e.alloc()
	ev.At, ev.fn2, ev.a1, ev.a2, ev.seq = t, fn, a1, a2, e.seq
	e.seq++
	e.npend++
	if e.nextEv != nil && t < e.nextEv.At {
		e.nextEv = ev
	}
	if b.ok && t == b.last {
		// Same timestamp, same slot: the cached tail is still the slot
		// tail because nothing dispatched since the last append.
		ev.next = nil
		(*b.tailp).next = ev
		*b.tailp = ev
		return ev
	}
	d := uint64(t ^ e.cur)
	switch {
	case d < nearSlots:
		i := int(uint64(t) & nearMask)
		e.pushNear(i, ev)
		b.tailp, b.last, b.ok = &e.near.tail[i], t, true
	case d>>wheelSpan != 0:
		e.pushOverflow(ev)
		b.ok = false
	default:
		l := coarseLevelOf(d)
		i := int((uint64(t) >> uint(nearBits+l*coarseBits)) & coarseMask)
		e.pushCoarseAt(l, i, ev)
		b.tailp, b.last, b.ok = &e.coarse[l].tail[i], t, true
	}
	return ev
}
