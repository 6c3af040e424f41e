package prism_test

import (
	"testing"

	"prism"
	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// TestSteadyStateRxPathZeroAlloc is the allocation regression gate for the
// tentpole pooling work: once the pools, the event free list, and the
// poll-list backing arrays have warmed up, simulating more receive traffic
// must not touch the heap at all. Each probe run pushes ~1ms of saturated
// flood through the full NIC → decap → bridge → veth → socket pipeline.
func TestSteadyStateRxPathZeroAlloc(t *testing.T) {
	for _, mode := range []prism.Mode{prism.ModeVanilla, prism.ModeBatch, prism.ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			s := prism.NewSimulation(prism.WithMode(mode), prism.WithSeed(3))
			srv := s.AddContainer("sink")
			s.MarkHighPriority(srv.IP, 11111)
			fl := s.NewBackgroundFlood(srv, 11111, 600_000)

			// Warm up: grow every pool and backing array to the traffic's
			// working-set size. Queue depths fluctuate under the Poisson
			// arrivals, so the working set keeps inching up for a while;
			// 200ms of virtual time is past the deepest excursions.
			s.Run(200_000_000)
			if fl.Delivered() == 0 {
				t.Fatal("warmup delivered nothing")
			}

			if avg := testing.AllocsPerRun(10, func() {
				s.Run(1_000_000)
			}); avg != 0 {
				t.Errorf("steady-state RX path allocates: %.1f allocs per 1ms of virtual time", avg)
			}
		})
	}
}

// TestObsRecordZeroAlloc gates always-on observability: once a packet's
// handles are bound, their series registered and the span ring full,
// recording a packet's whole lifecycle — DMA, three stage spans, socket
// delivery — must not touch the heap.
func TestObsRecordZeroAlloc(t *testing.T) {
	p := obs.NewPipeline("server")
	dma := p.Bind("eth0", obs.StageDMA)
	nic, br, veth := p.Bind("eth0", obs.StageNIC), p.Bind("br0", obs.StageBridge), p.Bind("veth0", obs.StageVeth)
	sock := p.Bind("c0", obs.StageSocket)
	var id uint64
	var now sim.Time
	lifecycle := func() {
		var skb pkt.SKB
		skb.ID, skb.Priority = id, int(id%2)
		dma.DMA(now, skb.ID, skb.Priority, &skb.Wait)
		nic.Span(skb.ID, skb.Priority, now+100, now+150, &skb.Wait)
		br.Span(skb.ID, skb.Priority, now+200, now+220, &skb.Wait)
		veth.Span(skb.ID, skb.Priority, now+300, now+340, &skb.Wait)
		sock.Deliver(now+400, skb.ID, skb.Priority, now, &skb.Wait)
		id++
		now += 1000
	}
	// Fill the ring; every series of both priorities registers on the way.
	for p.T.Len() < obs.DefaultTracerCap {
		lifecycle()
	}
	if avg := testing.AllocsPerRun(1000, lifecycle); avg != 0 {
		t.Errorf("obs lifecycle recording allocates: %.2f allocs per packet", avg)
	}
	if p.InFlight() != 0 {
		t.Errorf("in-flight = %d after every lifecycle closed, want 0", p.InFlight())
	}
}

// TestCrossShardInjectZeroAlloc gates the parallel runtime's cross-shard
// path: two shards ping-pong a frame over 1µs-lookahead links, so every
// synchronization window exercises Link.Send, the barrier collect/sort,
// Group.inject's batched CallAt scheduling and the per-link due FIFO.
// Once the link buffers, inboxes, FIFOs and event free-lists have warmed
// up, running more windows must not allocate: neither a closure per
// message nor an interface conversion per frame.
func TestCrossShardInjectZeroAlloc(t *testing.T) {
	g := par.NewGroup()
	sa := g.Add("a", sim.NewEngine(1))
	sb := g.Add("b", sim.NewEngine(2))
	const lookahead = sim.Microsecond
	var ab, ba *par.Link
	ab = g.Connect(sa, sb, lookahead, func(at sim.Time, frame []byte) {
		ba.Send(at, lookahead, frame)
	})
	ba = g.Connect(sb, sa, lookahead, func(at sim.Time, frame []byte) {
		ab.Send(at, lookahead, frame)
	})
	ab.Send(0, lookahead, make([]byte, 64))

	// Warm up the link buffers, inbox slices, due FIFOs and both engines'
	// free lists.
	horizon := 10 * sim.Millisecond
	if err := g.Run(horizon, 1); err != nil {
		t.Fatal(err)
	}
	if g.Windows == 0 {
		t.Fatal("warmup ran no synchronization windows")
	}

	if avg := testing.AllocsPerRun(10, func() {
		horizon += sim.Millisecond
		if err := g.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cross-shard inject path allocates: %.1f allocs per 1ms of virtual time", avg)
	}
}
