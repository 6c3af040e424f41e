// Package par is a conservative parallel discrete-event runtime: it runs
// sim.Engine shards on a pool of worker goroutines and synchronizes the
// shards with lookahead derived from the model's physical delays (the
// wire latency of the point-to-point link, the IPI cost of cross-core
// wakeups, the per-queue independence of RSS steering).
//
// # Model
//
// A Group owns a set of Shards, each wrapping an independent sim.Engine
// with its own clock, event queue and RNG. Shards interact only through
// Links — unidirectional frame channels with a declared minimum latency
// (the link's lookahead). Because every cross-shard message arrives at
// least lookahead after it was sent, the classic conservative-window argument
// applies: if the earliest pending event anywhere in the group is at time
// T, then no shard can receive a message before T+lookahead, so every
// shard may safely burn its local events up to (but not including)
// T+lookahead with no synchronization at all. Group.Run repeats that
// window computation until the horizon.
//
// Each shard has a home worker, the only goroutine that touches its
// engine during a Run. In every window the home drains the shard's
// incoming links, injects the messages due in the window, runs the shard
// if it has work, and summarizes what the shard has pending. Links are
// double-buffered by window parity, so a source filling one buffer never
// meets the destination draining the other. Between windows the
// coordinator only reduces the workers' summaries into the next window.
//
// # Determinism
//
// A parallel run is bit-identical to the single-worker run of the same shard
// decomposition, for any worker count:
//
//   - the window schedule is a pure function of event timestamps, which do
//     not depend on execution interleaving;
//   - within a window each shard executes single-threaded, exactly as the
//     sequential engine would;
//   - a message sent in one window is drained only in the next, and is
//     sorted by the stable key (delivery time, source shard ID,
//     per-source sequence number) before injection, so the destination
//     engine's FIFO tie-breaking sees the same arrival order every run;
//   - the assignment of shards to home workers decides only where a shard
//     runs, never what it runs.
//
// The determinism tests in this package and in internal/experiments
// assert exactly that: workers=1 and workers=N produce identical
// delivered-packet sequences and histogram contents, and a retained
// centralized scheduler in the tests produces the same again.
package par

import (
	"fmt"

	"prism/internal/sim"
)

// Shard is one unit of parallelism: an engine plus the cross-shard
// plumbing the Group scheduler needs. Model code on a shard must touch
// only state owned by that shard; the only sanctioned way to affect
// another shard is Link.Send.
type Shard struct {
	ID   int
	Name string
	Eng  *sim.Engine

	// in lists the links delivering to this shard, drained by its home.
	in []*Link
	// inbox holds drained cross-shard messages awaiting injection, sorted
	// by (at, src, seq).
	inbox []message
	// key is the ordering key of the shard's next send: its ID above a
	// counter of its sends over all its outbound links, giving
	// equal-timestamp messages from one shard a total order.
	key uint64
	// par is the parity of the window the shard last ran in: its sends go
	// into their links' buffer of that parity. It starts at 1, so sends
	// made while the topology is built are drained in window 0.
	par int
	// sent is the earliest delivery time among the shard's sends in the
	// current window.
	sent sim.Time
}

// String identifies the shard in logs and errors.
func (s *Shard) String() string {
	return fmt.Sprintf("shard %d (%s)", s.ID, s.Name)
}

// InboxLen reports how many drained cross-shard messages are waiting to
// be injected into this shard: their delivery time falls beyond the
// horizon the group last ran to. Sends of the last window are still in
// the link buffers (Link.Buffered); conservation checkers count both as
// in-flight on the medium.
func (s *Shard) InboxLen() int { return len(s.inbox) }
