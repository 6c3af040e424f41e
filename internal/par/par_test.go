package par

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"prism/internal/sim"
)

// ringModel is a synthetic K-shard workload exercising everything the
// scheduler must get right: periodic local events, RNG-jittered cross-shard
// sends around a ring, and per-shard receive logs whose exact contents are
// the determinism oracle.
type ringModel struct {
	group *Group
	logs  [][]string // per shard: "(at frame)" in delivery order
}

func buildRing(k int, lookahead sim.Time) *ringModel {
	m := &ringModel{group: NewGroup(), logs: make([][]string, k)}
	shards := make([]*Shard, k)
	for i := 0; i < k; i++ {
		shards[i] = m.group.Add(fmt.Sprintf("ring-%d", i), sim.NewEngine(uint64(100+i)))
	}
	links := make([]*Link, k)
	for i := 0; i < k; i++ {
		dst := (i + 1) % k
		links[i] = m.group.Connect(shards[i], shards[dst], lookahead,
			func(at sim.Time, frame []byte, _ uint32) {
				m.logs[dst] = append(m.logs[dst],
					fmt.Sprintf("%d %s", at, frame))
			})
	}
	for i := 0; i < k; i++ {
		i := i
		s := shards[i]
		period := sim.Time(700 + 130*i)
		var tick func()
		tick = func() {
			now := s.Eng.Now()
			// Jitter the delivery beyond the lookahead using the shard's
			// own deterministic RNG.
			extra := sim.Time(s.Eng.RNG().Intn(2500))
			links[i].Send(now, lookahead+extra, fmt.Appendf(nil, "s%d@%d", i, now), 0)
			s.Eng.After(period, tick)
		}
		s.Eng.At(sim.Time(50*i), tick)
	}
	return m
}

func runRing(t *testing.T, k, workers int, horizon sim.Time) *ringModel {
	t.Helper()
	m := buildRing(k, 1000)
	if err := m.group.Run(horizon, workers); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return m
}

func TestGroupDeterministicAcrossWorkers(t *testing.T) {
	const k, horizon = 5, 400_000
	base := runRing(t, k, 1, horizon)
	for _, workers := range []int{2, 4, 8} {
		m := runRing(t, k, workers, horizon)
		if !reflect.DeepEqual(base.logs, m.logs) {
			t.Fatalf("workers=%d delivery logs differ from sequential baseline", workers)
		}
		for i, s := range m.group.Shards() {
			if s.Eng.Executed != base.group.Shards()[i].Eng.Executed {
				t.Fatalf("workers=%d shard %d executed %d events, sequential %d",
					workers, i, s.Eng.Executed, base.group.Shards()[i].Eng.Executed)
			}
			if s.Eng.Now() != horizon {
				t.Fatalf("shard %d clock = %v, want horizon %v", i, s.Eng.Now(), horizon)
			}
		}
	}
	// Sanity: the workload actually crossed shards, a lot.
	total := 0
	for _, l := range base.logs {
		total += len(l)
	}
	if total < 1000 {
		t.Fatalf("only %d cross-shard deliveries; model too idle to prove anything", total)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	g := NewGroup()
	a := g.Add("a", sim.NewEngine(1))
	b := g.Add("b", sim.NewEngine(2))
	var gotAt, engNow sim.Time
	l := g.Connect(a, b, 40, func(at sim.Time, frame []byte, _ uint32) {
		gotAt = at
		engNow = b.Eng.Now()
		if string(frame) != "ping" {
			t.Errorf("frame = %q", frame)
		}
	})
	a.Eng.At(100, func() { l.Send(100, 50, []byte("ping"), 0) })
	if err := g.Run(1000, 2); err != nil {
		t.Fatal(err)
	}
	if gotAt != 150 || engNow != 150 {
		t.Errorf("delivered at %v (engine now %v), want 150", gotAt, engNow)
	}
}

// TestCausalChainAcrossWindows bounces a token between two shards: each
// receive triggers the next send, so progress requires the window barrier
// to alternate correctly between the shards.
func TestCausalChainAcrossWindows(t *testing.T) {
	const lookahead = 100
	for _, workers := range []int{1, 2} {
		g := NewGroup()
		a := g.Add("a", sim.NewEngine(1))
		b := g.Add("b", sim.NewEngine(2))
		bounces := 0
		var ab, ba *Link
		ab = g.Connect(a, b, lookahead, func(at sim.Time, frame []byte, _ uint32) {
			bounces++
			ba.Send(at, lookahead, nil, 0)
		})
		ba = g.Connect(b, a, lookahead, func(at sim.Time, frame []byte, _ uint32) {
			bounces++
			ab.Send(at, lookahead, nil, 0)
		})
		a.Eng.At(0, func() { ab.Send(0, lookahead, nil, 0) })
		if err := g.Run(10_000, workers); err != nil {
			t.Fatal(err)
		}
		// Token departs at 0 and hops every 100ns: receptions at 100,
		// 200, ..., 10000 — inclusive horizon semantics.
		if bounces != 100 {
			t.Errorf("workers=%d: bounces = %d, want 100", workers, bounces)
		}
	}
}

func TestConstructionTimeSendDelivered(t *testing.T) {
	g := NewGroup()
	a := g.Add("a", sim.NewEngine(1))
	b := g.Add("b", sim.NewEngine(2))
	got := false
	l := g.Connect(a, b, 10, func(at sim.Time, frame []byte, _ uint32) { got = at == 10 })
	// Sent during topology construction, before any event ran.
	l.Send(0, 10, nil, 0)
	if err := g.Run(100, 1); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("construction-time send not delivered at its timestamp")
	}
}

func TestNoLinksRunsToHorizonInOneWindow(t *testing.T) {
	g := NewGroup()
	ran := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		s := g.Add(fmt.Sprintf("iso-%d", i), sim.NewEngine(uint64(i)))
		s.Eng.At(5, func() { ran[i]++ })
		s.Eng.At(500, func() { ran[i]++ }) // exactly at horizon: must fire
	}
	if err := g.Run(500, 2); err != nil {
		t.Fatal(err)
	}
	if ran != [2]int{2, 2} {
		t.Errorf("ran = %v, want both shards fully executed", ran)
	}
	if g.Windows != 1 {
		t.Errorf("Windows = %d, want 1 (no links → one window)", g.Windows)
	}
}

func TestHaltSurfacesShardIdentity(t *testing.T) {
	for _, workers := range []int{1, 3} {
		g := NewGroup()
		g.Add("calm", sim.NewEngine(1))
		s := g.Add("angry", sim.NewEngine(2))
		s.Eng.At(10, func() { s.Eng.Halt() })
		err := g.Run(100, workers)
		if !errors.Is(err, sim.ErrHalted) {
			t.Fatalf("workers=%d: err = %v, want ErrHalted", workers, err)
		}
		if !strings.Contains(err.Error(), "angry") {
			t.Errorf("workers=%d: err %q does not name the halted shard", workers, err)
		}
	}
}

func TestConnectValidation(t *testing.T) {
	g := NewGroup()
	a := g.Add("a", sim.NewEngine(1))
	b := g.Add("b", sim.NewEngine(2))
	mustPanic(t, "zero lookahead", func() { g.Connect(a, b, 0, nil) })
	mustPanic(t, "self link", func() { g.Connect(a, a, 5, nil) })
	l := g.Connect(a, b, 5, func(sim.Time, []byte, uint32) {})
	mustPanic(t, "sub-lookahead send", func() { l.Send(0, 4, nil, 0) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		counts := make([]int, n)
		ForEach(n, workers, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	ForEach(0, 4, func(int) { t.Error("fn called for n=0") })
}

func TestForEachResultsMatchSequential(t *testing.T) {
	const n = 33
	seq := make([]int, n)
	ForEach(n, 1, func(i int) { seq[i] = i * i })
	par := make([]int, n)
	ForEach(n, 7, func(i int) { par[i] = i * i })
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel results differ from sequential")
	}
}
