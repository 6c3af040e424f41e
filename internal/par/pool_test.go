package par

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/sim"
)

// settleGoroutines waits for the goroutine count to fall back to base.
// A pool's helpers have signalled exit when Run returns, but the runtime
// may count them for a moment longer while they unwind.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d: pool workers outlived Run",
				what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolGoroutinesDoNotOutliveRun(t *testing.T) {
	base := runtime.NumGoroutine()

	m := buildRing(5, 1000)
	if err := m.group.Run(200_000, 4); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base, "clean run")

	// Two shards halt in the same window: the error still names the
	// lowest-ID one, and the pool is torn down on the error path.
	g := NewGroup()
	for i := 0; i < 4; i++ {
		s := g.Add(fmt.Sprintf("s%d", i), sim.NewEngine(uint64(i)))
		if i == 1 || i == 3 {
			s.Eng.At(10, s.Eng.Halt)
		}
	}
	g.Connect(g.shards[0], g.shards[2], 100, func(sim.Time, []byte, uint32) {})
	err := g.Run(1000, 4)
	if !errors.Is(err, sim.ErrHalted) || !strings.Contains(err.Error(), "shard 1 (s1)") {
		t.Fatalf("err = %v, want ErrHalted naming shard 1", err)
	}
	settleGoroutines(t, base, "halted shard")

	// The Settle pattern: many short runs to growing horizons.
	m = buildRing(3, 1000)
	for h := sim.Time(10_000); h <= 500_000; h += 10_000 {
		if err := m.group.Run(h, 2); err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, base, "repeated runs")
}

// TestParkerParksThenWakes checks the idle path: a waiter whose condition
// stays false stops spinning and parks, and unpark after the condition
// turns true wakes it.
func TestParkerParksThenWakes(t *testing.T) {
	k := newParker()
	var ready atomic.Bool
	done := make(chan struct{})
	go func() {
		k.await(ready.Load)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !k.parked.Load() {
		if time.Now().After(deadline) {
			t.Fatal("idle waiter never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ready.Store(true)
	k.unpark()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter was not woken")
	}
}

func TestPoolMoreWorkersThanShards(t *testing.T) {
	base := runRing(t, 3, 1, 100_000)
	m := runRing(t, 3, 16, 100_000)
	if !reflect.DeepEqual(base.logs, m.logs) || base.group.Windows != m.group.Windows {
		t.Fatal("16 workers over 3 shards differ from the sequential run")
	}
}

// TestPoolDeterminismMatrix runs ring models of several sizes and
// lookaheads at 1, 2, 4 and 8 workers: delivery logs, executed events and
// the schedule counters must match the single-worker run exactly.
// BusiestWorkerEvents depends on the home assignment, so it is compared
// only between two runs at the same worker count.
func TestPoolDeterminismMatrix(t *testing.T) {
	for _, k := range []int{2, 5, 9} {
		for _, lookahead := range []sim.Time{1, 100, 1000} {
			run := func(workers int) (*ringModel, Stats) {
				m := buildRing(k, lookahead)
				if err := m.group.Run(60_000, workers); err != nil {
					t.Fatalf("k=%d lookahead=%d workers=%d: %v", k, lookahead, workers, err)
				}
				st := m.group.Stats()
				st.BarrierWaitNs = 0 // wall time, not schedule
				return m, st
			}
			base, baseStats := run(1)
			if baseStats.ActiveShardWindows == 0 || baseStats.ActiveShardWindows > baseStats.ShardWindows {
				t.Fatalf("k=%d lookahead=%d: implausible stats %+v", k, lookahead, baseStats)
			}
			var total uint64
			for _, s := range base.group.Shards() {
				total += s.Eng.Executed
			}
			if baseStats.BusiestWorkerEvents != total {
				t.Fatalf("k=%d lookahead=%d: one worker ran %d of %d events on its critical path",
					k, lookahead, baseStats.BusiestWorkerEvents, total)
			}
			for _, workers := range []int{2, 4, 8} {
				m, st := run(workers)
				if !reflect.DeepEqual(base.logs, m.logs) {
					t.Fatalf("k=%d lookahead=%d workers=%d: delivery logs differ", k, lookahead, workers)
				}
				if _, again := run(workers); again != st {
					t.Fatalf("k=%d lookahead=%d workers=%d: stats %+v, then %+v", k, lookahead, workers, st, again)
				}
				if st.BusiestWorkerEvents > total || k >= 5 && st.BusiestWorkerEvents == total {
					t.Fatalf("k=%d lookahead=%d workers=%d: busiest worker ran %d of %d events",
						k, lookahead, workers, st.BusiestWorkerEvents, total)
				}
				st.BusiestWorkerEvents = baseStats.BusiestWorkerEvents
				if st != baseStats {
					t.Fatalf("k=%d lookahead=%d workers=%d: stats %+v, one worker %+v", k, lookahead, workers, st, baseStats)
				}
				for i, s := range m.group.Shards() {
					if s.Eng.Executed != base.group.Shards()[i].Eng.Executed {
						t.Fatalf("k=%d lookahead=%d workers=%d: shard %d executed %d events, one worker %d",
							k, lookahead, workers, i, s.Eng.Executed, base.group.Shards()[i].Eng.Executed)
					}
				}
			}
		}
	}
}

// frameRing passes one frame per shard around a ring over 1µs links, each
// hop re-sent from the delivery callback: cross-shard traffic in every
// window with no allocation of its own.
func frameRing(k int) *Group {
	g := NewGroup()
	shards := make([]*Shard, k)
	for i := range shards {
		shards[i] = g.Add(fmt.Sprintf("r%d", i), sim.NewEngine(uint64(i)))
	}
	links := make([]*Link, k)
	for i := range links {
		next := (i + 1) % k
		links[i] = g.Connect(shards[i], shards[next], sim.Microsecond, func(at sim.Time, frame []byte, _ uint32) {
			links[next].Send(at, sim.Microsecond+sim.Time(frame[0]), frame, 0)
		})
	}
	for i, l := range links {
		l.Send(0, sim.Microsecond, []byte{byte(17 * i)}, 0)
	}
	return g
}

// TestPoolAllocationFlatInWindows gates the per-window cost: a Run
// allocates at most once for its pool, never per window, so a 1 ms run
// (about a thousand windows) and a 10 ms run allocate the same. With one
// worker there is no pool, and the homes are computed into reused slices,
// so a Run does not allocate at all.
func TestPoolAllocationFlatInWindows(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := frameRing(4)
		horizon := 5 * sim.Millisecond
		if err := g.Run(horizon, workers); err != nil { // warm buffers and free lists
			t.Fatal(err)
		}
		measure := func(span sim.Time) float64 {
			return testing.AllocsPerRun(10, func() {
				horizon += span
				if err := g.Run(horizon, workers); err != nil {
					t.Fatal(err)
				}
			})
		}
		before := g.Windows
		short := measure(sim.Millisecond)
		mid := g.Windows
		long := measure(10 * sim.Millisecond)
		if perShort, perLong := (mid-before)/11, (g.Windows-mid)/11; perLong < 5*perShort || perShort < 500 {
			t.Fatalf("workers=%d: windows per run: %d short, %d long; the runs do not exercise the barrier",
				workers, perShort, perLong)
		}
		if long != short {
			t.Errorf("workers=%d: a 10 ms run allocates %.0f times, a 1 ms run %.0f: allocation grows with windows",
				workers, long, short)
		}
		if workers == 1 && short != 0 {
			t.Errorf("workers=1: a Run allocates %.0f times, want 0", short)
		}
	}
}
