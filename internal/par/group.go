package par

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"prism/internal/sim"
)

// never stands for "no pending work" in window summaries.
const never = sim.Time(math.MaxInt64)

// Group owns a set of shards and the links between them, and schedules
// their synchronized execution. Build the topology single-threaded (Add,
// Connect, model construction), then call Run.
type Group struct {
	shards []*Shard
	links  []*Link
	// lookahead is the minimum over all links — the global safe-window
	// width. Zero while the group has no links.
	lookahead sim.Time

	// Windows counts synchronization rounds, for tests and tuning.
	Windows uint64

	// OnBarrier, when set, runs on the coordinator goroutine at the end of
	// every synchronization window, after the window's events have executed.
	// All shards are quiescent, so the callback may read any shard-local
	// state race-free, and it may mutate quiescent state — counters,
	// routing tables, admission parameters, registering new handlers —
	// because no shard observes the mutation until the next window starts.
	// The happens-before edges are the pool's done count (every worker's
	// window happens before the callback) and its publish of the next
	// window generation (the callback happens before the next window). It
	// must NOT schedule engine events or send on links: the window
	// schedule (and the Windows counter committed in golden fixtures) must
	// stay a pure function of the event timeline, identical whether or not
	// a hook is installed. Barrier-driven control planes (cluster recovery)
	// therefore act only on state; anything needing an exact-time event
	// schedules it from event context on the owning shard instead.
	// windowEnd is the window's exclusive bound: every event strictly
	// before it has executed.
	OnBarrier func(windowEnd sim.Time)

	// par is the parity of the last window; shards added later start on it.
	par int
	// workers holds the per-worker state of the current Run, reused
	// across Runs.
	workers []worker

	// activeShardWindows, busiestWorkerEvents and barrierWait feed Stats.
	activeShardWindows  uint64
	busiestWorkerEvents uint64
	barrierWait         time.Duration
}

// worker is one worker's share of a Run: its home shards and the summary
// of the window it last ran. Only the worker writes the summary, and the
// coordinator reads it after the worker's done count. The padding keeps
// each worker's summary on its own cache lines.
type worker struct {
	homes []*Shard
	// next is the earliest pending work over the homes (never if none):
	// engine events, undelivered inbox messages and the window's sends.
	next sim.Time
	// active counts the homes with an event before the window end, and
	// events the events they ran.
	active uint64
	events uint64
	// halted is the lowest-ID home that halted in the window, with err.
	halted *Shard
	err    error
	_      cacheLinePad
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{par: 1} }

// Add wraps eng as the next shard. Engines must not be shared between
// shards.
func (g *Group) Add(name string, eng *sim.Engine) *Shard {
	id := len(g.shards)
	if id >= 1<<(64-seqBits) {
		panic("par: too many shards for the message key")
	}
	s := &Shard{ID: id, Name: name, Eng: eng, key: uint64(id) << seqBits, par: g.par}
	g.shards = append(g.shards, s)
	return s
}

// Shards returns the shards in ID order.
func (g *Group) Shards() []*Shard { return g.shards }

// Connect creates a link from src to dst whose frames take at least
// lookahead to arrive; deliver runs on the destination shard, in event
// context at the frame's delivery time, with the tag the frame was sent
// with. Conservative synchronization is
// impossible with zero lookahead, so it panics.
func (g *Group) Connect(src, dst *Shard, lookahead sim.Time, deliver func(at sim.Time, frame []byte, tag uint32)) *Link {
	if lookahead <= 0 {
		panic("par: conservative synchronization requires positive link lookahead")
	}
	if src == dst {
		panic("par: link endpoints must be distinct shards")
	}
	l := &Link{Src: src, Dst: dst, Lookahead: lookahead, deliver: deliver}
	g.links = append(g.links, l)
	dst.in = append(dst.in, l)
	if g.lookahead == 0 || lookahead < g.lookahead {
		g.lookahead = lookahead
	}
	return l
}

// Run executes all shards up to and including horizon (the same inclusive
// semantics as sim.Engine.Run), using up to workers goroutines. Every
// worker count runs the same code: workers <= 1 is one home worker on
// the calling goroutine, and more workers share one pool for the whole
// call (see pool.go), torn down on every return path, so no goroutine
// outlives Run. On return every shard's clock is at horizon, unless a
// shard halted, which surfaces as ErrHalted wrapped with the shard's
// identity (the lowest-ID halted shard, for determinism).
func (g *Group) Run(horizon sim.Time, workers int) error {
	g.assignHomes(min(max(workers, 1), len(g.shards)))
	var p *pool
	if len(g.workers) > 1 {
		p = g.startPool()
		defer p.close()
	}
	for next := g.scan(); next <= horizon; {
		// The safe horizon: nothing anywhere can affect another shard
		// before next+lookahead. Events exactly at the group horizon must
		// fire (inclusive semantics), hence the +1 bound with RunUntil's
		// strictly-before contract.
		end := horizon + 1
		if len(g.links) > 0 {
			if w := next + g.lookahead; w < end {
				end = w
			}
		}
		g.par ^= 1
		g.Windows++
		if p != nil {
			p.runWindow(end)
		} else {
			g.workers[0].runWindow(g.par, end)
		}
		next = never
		var busiest uint64
		var failed *worker
		for i := range g.workers {
			w := &g.workers[i]
			next = min(next, w.next)
			g.activeShardWindows += w.active
			busiest = max(busiest, w.events)
			if w.halted != nil && (failed == nil || w.halted.ID < failed.halted.ID) {
				failed = w
			}
		}
		g.busiestWorkerEvents += busiest
		if failed != nil {
			return fmt.Errorf("par: %s: %w", failed.halted, failed.err)
		}
		if g.OnBarrier != nil {
			g.OnBarrier(end)
		}
	}
	// Finish with every clock at the horizon, mirroring Engine.Run.
	for _, s := range g.shards {
		if err := s.Eng.Run(horizon); err != nil {
			return fmt.Errorf("par: %s: %w", s, err)
		}
	}
	return nil
}

// assignHomes deals the shards over n workers round-robin in ID order:
// shard i's home is worker i mod n. Homes decide only where a shard runs,
// so the assignment never changes results. It reuses the group's slices,
// so it allocates only when the worker count grows.
func (g *Group) assignHomes(n int) {
	if cap(g.workers) < n {
		g.workers = make([]worker, n)
	}
	g.workers = g.workers[:n]
	for i := range g.workers {
		g.workers[i].homes = g.workers[i].homes[:0]
	}
	for i, s := range g.shards {
		w := &g.workers[i%n]
		w.homes = append(w.homes, s)
	}
}

// scan returns the earliest pending work item in the group — engine
// event, inbox message or send still in a link buffer — or never. It
// finds the first window of a Run; later windows reduce the workers'
// summaries instead.
func (g *Group) scan() sim.Time {
	next := never
	for _, s := range g.shards {
		if at, ok := s.Eng.NextAt(); ok {
			next = min(next, at)
		}
		if len(s.inbox) > 0 {
			next = min(next, s.inbox[0].at)
		}
	}
	for _, l := range g.links {
		for _, b := range l.bufs {
			for i := range b {
				next = min(next, b[i].at)
			}
		}
	}
	return next
}

// runWindow is one worker's share of a window of parity par ending at
// end: for each home shard, drain, inject, run if it has work, and fold
// what the shard has pending into the worker's summary.
func (w *worker) runWindow(par int, end sim.Time) {
	w.next, w.active, w.events, w.halted, w.err = never, 0, 0, nil, nil
	for _, s := range w.homes {
		s.drain(par ^ 1)
		s.inject(end)
		s.par, s.sent = par, never
		at, ok := s.Eng.NextAt()
		if ok && at < end {
			w.active++
			before := s.Eng.Executed
			if err := s.Eng.RunUntil(end); err != nil && (w.halted == nil || s.ID < w.halted.ID) {
				w.halted, w.err = s, err
			}
			w.events += s.Eng.Executed - before
			at, ok = s.Eng.NextAt()
		}
		if ok {
			w.next = min(w.next, at)
		}
		if len(s.inbox) > 0 {
			w.next = min(w.next, s.inbox[0].at)
		}
		w.next = min(w.next, s.sent)
	}
}

// drain moves the sends of the window before into the inbox and restores
// its (at, src, seq) order.
func (s *Shard) drain(par int) {
	n := len(s.inbox)
	for _, l := range s.in {
		if b := l.bufs[par]; len(b) > 0 {
			s.inbox = append(s.inbox, b...)
			clear(b) // or the drained messages pin their frames
			l.bufs[par] = b[:0]
		}
	}
	if len(s.inbox) > n {
		// (at, src, seq) is a total order — seq is unique per source —
		// so the unstable sort is deterministic. SortFunc with a
		// non-capturing comparator keeps the window allocation-free,
		// where sort.Slice boxed the slice and closure every window.
		slices.SortFunc(s.inbox, compareMessages)
	}
}

// deliverFrame is the top-level trampoline injected messages dispatch
// through: a1 is the *Link, whose due FIFO holds the frame and its tag.
// Scheduling it via CallAt reuses a pooled event record and boxes
// nothing — no capturing closure, no interface conversion of the frame.
func deliverFrame(at sim.Time, a1, _ any) {
	l := a1.(*Link)
	d := l.due.Pop()
	l.deliver(at, d.frame, d.tag)
}

// inject moves every inbox message due before end into the engine. The
// inbox is sorted by (at, src, seq), so the engine's FIFO tie-breaking
// observes a deterministic arrival order; that same order means the
// messages arrive at nondecreasing timestamps, so the whole window is
// scheduled through one batch cursor — a single wheel insert run instead
// of one full queue push per message.
//
// Each frame waits in its link's due FIFO until its event dispatches.
// That keeps frames and events paired: one link's messages share a source,
// so they are injected in (at, seq) order; equal times dispatch FIFO; and
// every message injected in a window dispatches before the next window's
// messages, which arrive no earlier than the window end.
func (s *Shard) inject(end sim.Time) {
	i := 0
	b := s.Eng.BeginBatch()
	for i < len(s.inbox) && s.inbox[i].at < end {
		m := &s.inbox[i]
		b.CallAt(m.at, deliverFrame, m.link, nil)
		m.link.due.Push(m.delivery)
		i++
	}
	if i > 0 {
		// Compact in place, then clear the vacated tail: the stale
		// entries beyond the new length still hold frames, and
		// leaving them pins delivered frames across windows.
		n := copy(s.inbox, s.inbox[i:])
		clear(s.inbox[n:len(s.inbox)])
		s.inbox = s.inbox[:n]
	}
}

// Tagged counts the frames the group holds on its links — in link
// buffers, shard inboxes and due FIFOs — whose tag has a bit of mask set.
// Call it only while the shards are quiescent (between Runs or at a
// barrier); a due FIFO holds frames only when a Run stopped mid-window.
func (g *Group) Tagged(mask uint32) int {
	n := 0
	count := func(d delivery) {
		if d.tag&mask != 0 {
			n++
		}
	}
	for _, l := range g.links {
		for _, b := range l.bufs {
			for i := range b {
				count(b[i].delivery)
			}
		}
		for i := 0; i < l.due.Len(); i++ {
			count(l.due.At(i))
		}
	}
	for _, s := range g.shards {
		for i := range s.inbox {
			count(s.inbox[i].delivery)
		}
	}
	return n
}

// compareMessages orders inbox messages by (at, src, seq).
func compareMessages(a, b message) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// Stats is the group's self-report of its synchronization behaviour. It
// is deliberately kept out of every obs registry, so the simulated
// metrics and span digests stay independent of how a run was scheduled.
type Stats struct {
	// Windows counts synchronization rounds (the same as Group.Windows).
	Windows uint64 `json:"windows"`
	// ShardWindows is Windows × shards: every (shard, window) slot.
	ShardWindows uint64 `json:"shard_windows"`
	// ActiveShardWindows counts the slots whose shard had at least one
	// event before the window end. A window runs only these; the rest
	// would have nothing to do.
	ActiveShardWindows uint64 `json:"active_shard_windows"`
	// BusiestWorkerEvents sums, over windows, the most events any one
	// worker ran in the window: the events on the window's critical path.
	// Against the total events it measures load imbalance. It depends on
	// the home assignment, so it is reproducible only at a fixed worker
	// count.
	BusiestWorkerEvents uint64 `json:"busiest_worker_events"`
	// BarrierWaitNs is the wall time the coordinator spent waiting at
	// barriers for the other workers, summed over windows. Zero for
	// single-worker runs.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
}

// Stats returns the group's cumulative synchronization counters. Call it
// between runs or from OnBarrier, where every shard is quiescent.
func (g *Group) Stats() Stats {
	return Stats{
		Windows:             g.Windows,
		ShardWindows:        g.Windows * uint64(len(g.shards)),
		ActiveShardWindows:  g.activeShardWindows,
		BusiestWorkerEvents: g.busiestWorkerEvents,
		BarrierWaitNs:       int64(g.barrierWait),
	}
}
