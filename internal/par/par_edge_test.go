package par

import (
	"fmt"
	"reflect"
	"testing"

	"prism/internal/sim"
)

// TestMinimalLookaheadTieOrdering shrinks the safe window to its floor
// (lookahead 1, so every window advances one tick) and lands simultaneous
// arrivals from several sources on one shard: delivery must follow the
// (at, src, seq) key — source shard ID, then send order — for every
// worker count, with the same barrier count.
func TestMinimalLookaheadTieOrdering(t *testing.T) {
	capture := func(workers int) ([]string, uint64) {
		g := NewGroup()
		sink := g.Add("sink", sim.NewEngine(9))
		var got []string
		record := func(at sim.Time, frame []byte, _ uint32) {
			got = append(got, fmt.Sprintf("%d %s", at, frame))
		}
		for i := 1; i <= 3; i++ {
			i := i
			src := g.Add(fmt.Sprintf("src-%d", i), sim.NewEngine(uint64(i)))
			l := g.Connect(src, sink, 1, record)
			// Schedule the higher-ID shards earlier in wall-clock terms
			// (they fire at the same virtual time) so any accidental
			// execution-order dependence would invert the expected order.
			src.Eng.At(0, func() {
				l.Send(0, 40, fmt.Appendf(nil, "s%d#0", i), 0)
				l.Send(0, 40, fmt.Appendf(nil, "s%d#1", i), 0)
			})
		}
		if err := g.Run(100, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return got, g.Windows
	}

	want := []string{"40 s1#0", "40 s1#1", "40 s2#0", "40 s2#1", "40 s3#0", "40 s3#1"}
	base, windows := capture(1)
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("sequential delivery order = %v, want %v", base, want)
	}
	for _, workers := range []int{2, 4} {
		got, w := capture(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: order %v differs from sequential %v", workers, got, base)
		}
		if w != windows {
			t.Errorf("workers=%d: %d windows, sequential %d", workers, w, windows)
		}
	}
}

// TestIdleShardCrossesEmptyWindows connects a shard that schedules no
// events of its own: every window is empty on its side until a message
// lands. The scheduler must still advance its clock through those empty
// windows and deliver each message at its exact timestamp.
func TestIdleShardCrossesEmptyWindows(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGroup()
		src := g.Add("busy", sim.NewEngine(1))
		idle := g.Add("idle", sim.NewEngine(2))
		var got []sim.Time
		l := g.Connect(src, idle, 5, func(at sim.Time, frame []byte, _ uint32) {
			if idle.Eng.Now() != at {
				t.Errorf("workers=%d: delivered at engine time %v, stamp %v", workers, idle.Eng.Now(), at)
			}
			got = append(got, at)
		})
		// Dense local ticks force many windows; only every 50th tick sends.
		var tick func()
		tick = func() {
			now := src.Eng.Now()
			if now%500 == 0 {
				l.Send(now, 7, nil, 0)
			}
			src.Eng.After(10, tick)
		}
		src.Eng.At(0, tick)
		if err := g.Run(3000, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []sim.Time{7, 507, 1007, 1507, 2007, 2507}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: deliveries %v, want %v", workers, got, want)
		}
		if idle.Eng.Now() != 3000 {
			t.Errorf("workers=%d: idle clock %v, want horizon 3000", workers, idle.Eng.Now())
		}
		if idle.Eng.Executed != uint64(len(want)) {
			t.Errorf("workers=%d: idle shard executed %d events, want %d", workers, idle.Eng.Executed, len(want))
		}
	}
}

// TestBurstyShardSilentWindows checks determinism when one shard enqueues
// nothing for long stretches: a sender bursts early and goes silent while
// another pair keeps the window machinery turning. The silent shard's
// stale window state must not perturb ordering at any worker count.
func TestBurstyShardSilentWindows(t *testing.T) {
	capture := func(workers int) ([][]string, uint64) {
		g := NewGroup()
		bursty := g.Add("bursty", sim.NewEngine(1))
		steady := g.Add("steady", sim.NewEngine(2))
		sink := g.Add("sink", sim.NewEngine(3))
		logs := make([][]string, 2)
		record := func(i int) func(at sim.Time, frame []byte, _ uint32) {
			return func(at sim.Time, frame []byte, _ uint32) {
				logs[i] = append(logs[i], fmt.Sprintf("%d %s", at, frame))
			}
		}
		lb := g.Connect(bursty, sink, 20, record(0))
		ls := g.Connect(steady, sink, 20, record(1))
		// The burst: ten sends in the first 100 ticks, then nothing ever
		// again — thousands of windows pass with this shard empty.
		for i := 0; i < 10; i++ {
			at := sim.Time(10 * i)
			bursty.Eng.At(at, func() { lb.Send(at, 25, fmt.Appendf(nil, "burst@%d", at), 0) })
		}
		var tick func()
		tick = func() {
			now := steady.Eng.Now()
			ls.Send(now, 20+sim.Time(steady.Eng.RNG().Intn(90)), fmt.Appendf(nil, "steady@%d", now), 0)
			steady.Eng.After(37, tick)
		}
		steady.Eng.At(0, tick)
		if err := g.Run(50_000, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return logs, g.Windows
	}

	base, windows := capture(1)
	if len(base[0]) != 10 || len(base[1]) < 1000 {
		t.Fatalf("burst=%d steady=%d deliveries; model too idle", len(base[0]), len(base[1]))
	}
	for _, workers := range []int{2, 3} {
		logs, w := capture(workers)
		if !reflect.DeepEqual(logs, base) {
			t.Errorf("workers=%d: delivery logs differ from sequential baseline", workers)
		}
		if w != windows {
			t.Errorf("workers=%d: %d windows, sequential %d", workers, w, windows)
		}
	}
}

// TestTaggedCountsInFlight: Group.Tagged counts the messages still in
// flight past the horizon, in a link buffer or the destination inbox, by
// their tag bits; a delivered message no longer counts.
func TestTaggedCountsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGroup()
		a := g.Add("a", sim.NewEngine(1))
		b := g.Add("b", sim.NewEngine(2))
		l := g.Connect(a, b, 50, func(sim.Time, []byte, uint32) {})
		a.Eng.At(950, func() {
			l.Send(950, 50, nil, 1<<31) // delivered at the horizon
			for i, tag := range []uint32{1, 1 | 1<<31, 1 << 31, 0} {
				l.Send(950, sim.Time(60+i), nil, tag)
			}
		})
		if err := g.Run(1000, workers); err != nil {
			t.Fatal(err)
		}
		for mask, want := range map[uint32]int{1 << 31: 2, 1: 2, ^uint32(0): 3, 0: 0} {
			if got := g.Tagged(mask); got != want {
				t.Errorf("workers=%d: Tagged(%#x) = %d, want %d", workers, mask, got, want)
			}
		}
	}
}

// TestWindowBoundaryMessage pins the barrier's half-open semantics: a
// message landing exactly on a window boundary (delay == lookahead, the
// legal minimum) belongs to the NEXT window, and one landing exactly at
// the group horizon must still fire (inclusive semantics), while one
// landing past the horizon stays in flight, in the link buffer or the
// destination inbox, where conservation checkers can count it.
func TestWindowBoundaryMessage(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGroup()
		a := g.Add("a", sim.NewEngine(1))
		b := g.Add("b", sim.NewEngine(2))
		var got []sim.Time
		l := g.Connect(a, b, 50, func(at sim.Time, frame []byte, _ uint32) { got = append(got, at) })
		a.Eng.At(0, func() {
			l.Send(0, 50, []byte("boundary"), 0) // arrives exactly at first window end (0+lookahead)
		})
		a.Eng.At(950, func() {
			l.Send(950, 50, []byte("at-horizon"), 0)   // arrives exactly at horizon 1000
			l.Send(950, 60, []byte("past-horizon"), 0) // arrives at 1010 — beyond the run
		})
		if err := g.Run(1000, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []sim.Time{50, 1000}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: deliveries at %v, want %v", workers, got, want)
		}
		// The undeliverable message is in flight: either still in the link
		// buffer (sent in the last window) or drained into b's inbox.
		if inflight := l.Buffered() + b.InboxLen(); inflight != 1 {
			t.Errorf("workers=%d: %d in-flight messages past horizon, want 1", workers, inflight)
		}
	}
}
