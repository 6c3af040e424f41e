package par

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prism/internal/sim"
)

// refRun is the centralized scheduler Group.Run replaced, kept as a
// differential oracle. Every window one goroutine computes the earliest
// pending work over every shard, injects every shard's due messages, runs
// the active shards in ID order and collects every link buffer into the
// inboxes. It keeps the same counters as Run, except BusiestWorkerEvents.
// It shares no delivery path with Run: it decodes message keys into
// explicit (src, seq) fields, and it schedules one plain closure per
// message instead of the batch cursor, deliverFrame and the due FIFO.
func refRun(g *Group, horizon sim.Time) error {
	if err := refCollect(g); err != nil {
		return err
	}
	for {
		next, ok := refNextTime(g)
		if !ok || next > horizon {
			break
		}
		end := horizon + 1
		if len(g.links) > 0 {
			if w := next + g.lookahead; w < end {
				end = w
			}
		}
		var active []*Shard
		for _, s := range g.shards {
			refInject(s, end)
			if at, ok := s.Eng.NextAt(); ok && at < end {
				active = append(active, s)
			}
		}
		g.Windows++
		g.activeShardWindows += uint64(len(active))
		var failed error
		for _, s := range active {
			if err := s.Eng.RunUntil(end); err != nil && failed == nil {
				failed = fmt.Errorf("par: %s: %w", s, err)
			}
		}
		if failed != nil {
			return failed
		}
		if err := refCollect(g); err != nil {
			return err
		}
		if g.OnBarrier != nil {
			g.OnBarrier(end)
		}
	}
	for _, s := range g.shards {
		if err := s.Eng.Run(horizon); err != nil {
			return fmt.Errorf("par: %s: %w", s, err)
		}
	}
	return nil
}

// refInject schedules every inbox message due before end as its own
// engine event, in inbox order, and drops it from the inbox.
func refInject(s *Shard, end sim.Time) {
	i := 0
	for ; i < len(s.inbox) && s.inbox[i].at < end; i++ {
		l, at, d := s.inbox[i].link, s.inbox[i].at, s.inbox[i].delivery
		s.Eng.At(at, func() { l.deliver(at, d.frame, d.tag) })
	}
	s.inbox = append(s.inbox[:0], s.inbox[i:]...)
}

// refNextTime is the earliest engine event or inbox message in the group.
func refNextTime(g *Group) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, s := range g.shards {
		if at, ok := s.Eng.NextAt(); ok && (!found || at < best) {
			best, found = at, true
		}
		if len(s.inbox) > 0 && (!found || s.inbox[0].at < best) {
			best, found = s.inbox[0].at, true
		}
	}
	return best, found
}

// refSrc and refSeq decode a message key into its sending shard and that
// shard's send counter.
func refSrc(m message) int    { return int(m.key >> seqBits) }
func refSeq(m message) uint64 { return m.key & (1<<seqBits - 1) }

// refCollect drains both buffers of every link into the inboxes and sorts
// them by the decoded (at, src, seq). It checks the key encoding on the
// way: every key names the link's source, and one link's sends carry
// increasing sequence numbers.
func refCollect(g *Group) error {
	for _, l := range g.links {
		for p := range l.bufs {
			for i, m := range l.bufs[p] {
				if refSrc(m) != l.Src.ID {
					return fmt.Errorf("ref: message on %s→%s decodes to source %d", l.Src, l.Dst, refSrc(m))
				}
				if i > 0 && refSeq(m) <= refSeq(l.bufs[p][i-1]) {
					return fmt.Errorf("ref: sequence on %s→%s not increasing at %d", l.Src, l.Dst, i)
				}
			}
			l.Dst.inbox = append(l.Dst.inbox, l.bufs[p]...)
			l.bufs[p] = l.bufs[p][:0]
		}
	}
	for _, s := range g.shards {
		sort.SliceStable(s.inbox, func(i, j int) bool {
			a, b := s.inbox[i], s.inbox[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if refSrc(a) != refSrc(b) {
				return refSrc(a) < refSrc(b)
			}
			return refSeq(a) < refSeq(b)
		})
	}
	return nil
}

// meshModel is a seeded random fan-in mesh: every shard ticks on its own
// period and sends on a random subset of its outgoing links, and every
// delivery may be forwarded on. Periods and delays are multiples of a
// common grain, so messages from several sources collide on one
// timestamp at their destination. Every send is tagged with its frame's
// CRC, and every delivery checks that the tag arrived with its frame.
type meshModel struct {
	group *Group
	logs  [][]string // per shard: "at src frame" in delivery order
	out   [][]*Link
	// badTags counts deliveries whose tag is not their frame's.
	badTags int
}

type meshSpec struct {
	seed      int64
	shards    int
	minLook   sim.Time // the smallest link lookahead (1 ns exercises the floor)
	haltShard []int    // shards that halt at haltAt
	haltAt    sim.Time
	// quiet delays every shard's first tick, so that for a while the
	// construction-time sends and their forwards are the only work.
	quiet sim.Time
}

func buildMesh(sp meshSpec) *meshModel {
	rng := rand.New(rand.NewSource(sp.seed))
	m := &meshModel{group: NewGroup(), logs: make([][]string, sp.shards), out: make([][]*Link, sp.shards)}
	shards := make([]*Shard, sp.shards)
	for i := range shards {
		shards[i] = m.group.Add(fmt.Sprintf("mesh-%d", i), sim.NewEngine(uint64(sp.seed)*31+uint64(i)))
	}
	const grain = 20
	for dst := range shards {
		// Fan-in from a random subset of the other shards, at least one.
		for src := range shards {
			if src == dst || (rng.Intn(3) == 0 && src != (dst+1)%sp.shards) {
				continue
			}
			look := sp.minLook
			if rng.Intn(2) == 0 {
				look = grain * sim.Time(1+rng.Intn(4))
			}
			src, dst := src, dst
			l := m.group.Connect(shards[src], shards[dst], look, func(at sim.Time, frame []byte, tag uint32) {
				m.logs[dst] = append(m.logs[dst], fmt.Sprintf("%d %d %s", at, src, frame))
				if tag != crc32.ChecksumIEEE(frame) {
					m.badTags++
				}
				e := shards[dst].Eng
				if e.RNG().Intn(4) == 0 {
					fw := m.out[dst][e.RNG().Intn(len(m.out[dst]))]
					m.send(fw, at, fw.Lookahead+sim.Time(e.RNG().Intn(3))*grain, fmt.Appendf(nil, "fw%d@%d", dst, at))
				}
			})
			m.out[src] = append(m.out[src], l)
		}
	}
	for i, s := range shards {
		i, s := i, s
		// Construction-time sends, before any event has run.
		for _, l := range m.out[i] {
			m.send(l, 0, l.Lookahead+grain*sim.Time(rng.Intn(3)), fmt.Appendf(nil, "init%d", i))
		}
		period := grain * sim.Time(1+rng.Intn(5))
		var tick func()
		tick = func() {
			now := s.Eng.Now()
			for j, l := range m.out[i] {
				if s.Eng.RNG().Intn(3) != 0 {
					m.send(l, now, l.Lookahead+grain*sim.Time(s.Eng.RNG().Intn(4)), fmt.Appendf(nil, "s%d.%d@%d", i, j, now))
				}
			}
			s.Eng.After(period, tick)
		}
		s.Eng.At(sp.quiet+grain*sim.Time(rng.Intn(3)), tick)
	}
	for _, h := range sp.haltShard {
		e := shards[h].Eng
		e.At(sp.haltAt, e.Halt)
	}
	return m
}

// send sends frame on l tagged with the frame's CRC.
func (m *meshModel) send(l *Link, now, delay sim.Time, frame []byte) {
	l.Send(now, delay, frame, crc32.ChecksumIEEE(frame))
}

// meshState is everything a scheduler must reproduce after a Run.
type meshState struct {
	err      string
	badTags  int
	logs     [][]string
	executed []uint64
	inflight []int // per shard: Buffered() of its incoming links + InboxLen()
	windows  uint64
	active   uint64
}

func (m *meshModel) state(err error) meshState {
	st := meshState{windows: m.group.Windows, active: m.group.activeShardWindows, badTags: m.badTags}
	if err != nil {
		st.err = err.Error()
	}
	for i, s := range m.group.Shards() {
		st.logs = append(st.logs, append([]string(nil), m.logs[i]...))
		st.executed = append(st.executed, s.Eng.Executed)
		n := s.InboxLen()
		for _, l := range s.in {
			n += l.Buffered()
		}
		st.inflight = append(st.inflight, n)
	}
	return st
}

// TestRunMatchesCentralizedScheduler compares Group.Run at 1, 2, 4 and 8
// workers with refRun on seeded random meshes, over several consecutive
// Runs: delivery logs, executed events, window counters and per-shard
// in-flight messages must be equal after every Run.
func TestRunMatchesCentralizedScheduler(t *testing.T) {
	horizons := []sim.Time{0, 3_000, 3_001, 7_000, 12_000}
	for seed := int64(1); seed <= 12; seed++ {
		sp := meshSpec{seed: seed, shards: 4 + int(seed%6), minLook: sim.Time(1 + 9*(seed%2))}
		if seed%3 == 0 {
			sp.quiet = 2_000
		}
		if seed%4 == 0 {
			// Two shards halt in one window: the lowest ID surfaces.
			sp.haltShard, sp.haltAt = []int{sp.shards - 1, 1}, 7_013
		}
		ref := buildMesh(sp)
		var want []meshState
		for _, h := range horizons {
			err := refRun(ref.group, h)
			if err != nil && !errors.Is(err, sim.ErrHalted) {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			want = append(want, ref.state(err))
			if err != nil {
				break
			}
		}
		last := want[len(want)-1]
		if last.badTags != 0 {
			t.Fatalf("seed %d: reference delivered %d frames with another frame's tag", seed, last.badTags)
		}
		if sp.haltShard != nil && !strings.Contains(last.err, "shard 1 (mesh-1)") {
			t.Fatalf("seed %d: err %q, want the halt of shard 1", seed, last.err)
		}
		if ties := sourceTies(last.logs); ties < 10 {
			t.Fatalf("seed %d: %d equal-timestamp deliveries from distinct sources; model proves too little", seed, ties)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			m := buildMesh(sp)
			for i := range want {
				got := m.state(m.group.Run(horizons[i], workers))
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("seed %d workers=%d run %d (horizon %d):\ngot  %+v\nwant %+v",
						seed, workers, i, horizons[i], summary(got), summary(want[i]))
				}
			}
		}
	}
}

// sourceTies counts consecutive deliveries to one shard at the same time
// from different sources.
func sourceTies(logs [][]string) int {
	n := 0
	for _, log := range logs {
		for i := 1; i < len(log); i++ {
			a, b := strings.Fields(log[i-1]), strings.Fields(log[i])
			if a[0] == b[0] && a[1] != b[1] {
				n++
			}
		}
	}
	return n
}

// summary shortens a meshState for failure messages.
func summary(st meshState) string {
	n := 0
	for _, l := range st.logs {
		n += len(l)
	}
	return fmt.Sprintf("err=%q deliveries=%d executed=%v inflight=%v windows=%d active=%d",
		st.err, n, st.executed, st.inflight, st.windows, st.active)
}

// TestFullMeshSendsEveryWindow connects every pair of shards and has every
// shard send on each of its links in every window, so under the race
// detector each link buffer is filled and drained by different workers
// window after window.
func TestFullMeshSendsEveryWindow(t *testing.T) {
	const k, look, horizon = 6, 50, 50_000
	build := func() (*Group, [][]string) {
		g := NewGroup()
		logs := make([][]string, k)
		shards := make([]*Shard, k)
		for i := range shards {
			shards[i] = g.Add(fmt.Sprintf("fm-%d", i), sim.NewEngine(uint64(i)))
		}
		out := make([][]*Link, k)
		for src := range shards {
			for dst := range shards {
				if src != dst {
					dst := dst
					out[src] = append(out[src], g.Connect(shards[src], shards[dst], look, func(at sim.Time, frame []byte, _ uint32) {
						logs[dst] = append(logs[dst], fmt.Sprintf("%d %s", at, frame))
					}))
				}
			}
		}
		for i, s := range shards {
			i, s := i, s
			var tick func()
			tick = func() {
				now := s.Eng.Now()
				for _, l := range out[i] {
					l.Send(now, look+sim.Time(s.Eng.RNG().Intn(2*look)), fmt.Appendf(nil, "%d@%d", i, now), 0)
				}
				s.Eng.After(look, tick)
			}
			s.Eng.At(0, tick)
		}
		return g, logs
	}
	ref, refLogs := build()
	if err := refRun(ref, horizon); err != nil {
		t.Fatal(err)
	}
	// One tick per shard per window: every link carries a send every window.
	if ref.Windows != horizon/look+1 || ref.activeShardWindows != k*ref.Windows {
		t.Fatalf("windows %d, active shard-windows %d: not every shard sends every window",
			ref.Windows, ref.activeShardWindows)
	}
	for _, workers := range []int{1, 2, 3, 4} {
		g, logs := build()
		if err := g.Run(horizon, workers); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(logs, refLogs) || g.Windows != ref.Windows {
			t.Fatalf("workers=%d: full-mesh deliveries or windows differ from the reference", workers)
		}
	}
}
