package par

import (
	"fmt"
	"slices"
	"time"

	"prism/internal/sim"
)

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
	// every synchronization window, after the window's events have executed
	// and cross-shard sends have been collected. All shards are quiescent
	// (every worker has reported the window done), so the callback may read
	// any shard-local state race-free, and it may mutate quiescent state —
	// counters, routing tables, admission parameters, registering new
	// handlers — because no shard observes the mutation until the next
	// window starts (the pool's publish of the next window generation is
	// the happens-before edge). It must NOT schedule engine events or send
	// on links: the window schedule (and the Windows counter committed in
	// golden fixtures) must stay a pure function of the event timeline,
	// identical whether or not a hook is installed. Barrier-driven control
	// planes (cluster recovery) therefore act only on state; anything
	// needing an exact-time event schedules it from event context on the
	// owning shard instead. windowEnd is the window's exclusive bound:
	// every event strictly before it has executed.
	OnBarrier func(windowEnd sim.Time)

	// active lists, in ID order, the shards with an event before the
	// current window's end; only these run in a parallel window.
	active []*Shard
	// activeShardWindows sums len(active) over windows and barrierWait
	// the coordinator's wall time blocked at barriers, for Stats.
	activeShardWindows uint64
	barrierWait        time.Duration
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{} }

// Add wraps eng as the next shard. Engines must not be shared between
// shards.
func (g *Group) Add(name string, eng *sim.Engine) *Shard {
	s := &Shard{ID: len(g.shards), Name: name, Eng: eng}
	g.shards = append(g.shards, s)
	return s
}

// Shards returns the shards in ID order.
func (g *Group) Shards() []*Shard { return g.shards }

// Connect creates a link from src to dst whose frames take at least
// lookahead to arrive; deliver runs on the destination shard, in event
// context at the frame's delivery time. Conservative synchronization is
// impossible with zero lookahead, so it panics.
func (g *Group) Connect(src, dst *Shard, lookahead sim.Time, deliver func(at sim.Time, frame []byte)) *Link {
	if lookahead <= 0 {
		panic("par: conservative synchronization requires positive link lookahead")
	}
	if src == dst {
		panic("par: link endpoints must be distinct shards")
	}
	l := &Link{Src: src, Dst: dst, Lookahead: lookahead, deliver: deliver}
	g.links = append(g.links, l)
	if g.lookahead == 0 || lookahead < g.lookahead {
		g.lookahead = lookahead
	}
	return l
}

// Run executes all shards up to and including horizon (the same inclusive
// semantics as sim.Engine.Run), using up to workers goroutines.
// workers <= 1 runs the identical window schedule sequentially — the
// baseline every determinism test compares against. A parallel run keeps
// one worker pool for the whole call (see pool.go) and tears it down on
// every return path, so no goroutine outlives Run. On return every
// shard's clock is at horizon, unless a shard halted, which surfaces as
// ErrHalted wrapped with the shard's identity (the lowest-ID halted shard,
// for determinism).
func (g *Group) Run(horizon sim.Time, workers int) error {
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	var p *pool
	if workers > 1 {
		p = g.startPool(workers)
		defer p.close()
	}
	// Flush construction-time sends so they participate in the first
	// window computation.
	g.collect()
	for {
		next, ok := g.nextTime()
		if !ok || next > horizon {
			break
		}
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
		g.inject(end)
		g.Windows++
		g.activeShardWindows += uint64(len(g.active))
		if p != nil {
			p.runWindow(end)
		} else {
			for _, s := range g.shards {
				s.err = s.Eng.RunUntil(end)
			}
		}
		// Only an active shard can have executed, hence halted.
		for _, s := range g.active {
			if s.err != nil {
				return fmt.Errorf("par: %s: %w", s, s.err)
			}
		}
		g.collect()
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

// Stats is the group's self-report of its synchronization behaviour. It
// is deliberately kept out of every obs registry, so the simulated
// metrics and span digests stay independent of how a run was scheduled.
type Stats struct {
	// Windows counts synchronization rounds (the same as Group.Windows).
	Windows uint64 `json:"windows"`
	// ShardWindows is Windows × shards: every (shard, window) slot.
	ShardWindows uint64 `json:"shard_windows"`
	// ActiveShardWindows counts the slots whose shard had at least one
	// event before the window end. A parallel window runs only these; the
	// rest would have nothing to do.
	ActiveShardWindows uint64 `json:"active_shard_windows"`
	// BarrierWaitNs is the wall time the coordinator spent waiting at
	// barriers for the other workers, summed over windows. Zero for
	// sequential runs.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
}

// Stats returns the group's cumulative synchronization counters. Call it
// between runs or from OnBarrier, where every shard is quiescent.
func (g *Group) Stats() Stats {
	return Stats{
		Windows:            g.Windows,
		ShardWindows:       g.Windows * uint64(len(g.shards)),
		ActiveShardWindows: g.activeShardWindows,
		BarrierWaitNs:      int64(g.barrierWait),
	}
}

// nextTime returns the earliest pending work item — engine event or
// undelivered cross-shard message — across the whole group.
func (g *Group) nextTime() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, s := range g.shards {
		if at, ok := s.Eng.NextAt(); ok && (!found || at < best) {
			best, found = at, true
		}
		if len(s.inbox) > 0 {
			if at := s.inbox[0].at; !found || at < best {
				best, found = at, true
			}
		}
	}
	return best, found
}

// deliverFrame is the top-level trampoline injected messages dispatch
// through: a1 is the *Link, whose due FIFO holds the frame. Scheduling it
// via CallAt reuses a pooled event record and boxes nothing — no
// capturing closure, no interface conversion of the frame.
func deliverFrame(at sim.Time, a1, _ any) {
	l := a1.(*Link)
	l.deliver(at, l.due.Pop())
}

// inject moves every inbox message due before end into its destination
// engine and lists the shards that then have work before end. Inboxes are sorted by (at, src, seq), so the engines' FIFO
// tie-breaking observes a deterministic arrival order; that same order
// means each shard's messages arrive at nondecreasing timestamps, so the
// whole window is scheduled through one batch cursor — a single wheel
// insert run instead of one full queue push per message.
//
// Each frame waits in its link's due FIFO until its event dispatches.
// That keeps frames and events paired: one link's messages share a source,
// so they are injected in (at, seq) order; equal times dispatch FIFO; and
// every message injected in a window dispatches before the next window's
// messages, which arrive no earlier than the window end.
func (g *Group) inject(end sim.Time) {
	g.active = g.active[:0]
	for _, s := range g.shards {
		i := 0
		b := s.Eng.BeginBatch()
		for i < len(s.inbox) && s.inbox[i].at < end {
			m := &s.inbox[i]
			b.CallAt(m.at, deliverFrame, m.link, nil)
			m.link.due.Push(m.frame)
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
		if at, ok := s.Eng.NextAt(); ok && at < end {
			g.active = append(g.active, s)
		}
	}
}

// collect drains every link buffer into the destination inboxes and
// restores their (at, src, seq) order. Runs only at barriers.
func (g *Group) collect() {
	for _, l := range g.links {
		if len(l.buf) == 0 {
			continue
		}
		l.Dst.inbox = append(l.Dst.inbox, l.buf...)
		l.buf = l.buf[:0]
	}
	for _, s := range g.shards {
		if len(s.inbox) > 1 {
			// (at, src, seq) is a total order — seq is unique per source —
			// so the unstable sort is deterministic. SortFunc with a
			// non-capturing comparator keeps the barrier allocation-free,
			// where sort.Slice boxed the slice and closure every window.
			slices.SortFunc(s.inbox, compareMessages)
		}
	}
}

// compareMessages orders inbox messages by (at, src, seq).
func compareMessages(a, b message) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.src != b.src:
		return a.src - b.src
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	default:
		return 0
	}
}
