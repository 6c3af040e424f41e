package testnet

import (
	"testing"

	"prism/internal/cpu"
	"prism/internal/napi"
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sim"
)

func TestChainWiring(t *testing.T) {
	c := NewChain(100, 16)
	skb := &pkt.SKB{ID: 1}

	res := c.Eth.Handler.HandlePacket(0, skb)
	if res.Verdict != netdev.VerdictForward || res.Next != c.Br || res.Cost != 100 {
		t.Fatalf("eth result = %+v", res)
	}
	res = c.Br.Handler.HandlePacket(0, skb)
	if res.Verdict != netdev.VerdictForward || res.Next != c.Veth || res.Cost != 100 {
		t.Fatalf("br result = %+v", res)
	}
	res = c.Veth.Handler.HandlePacket(0, skb)
	if res.Verdict != netdev.VerdictDeliver || res.Sink != netdev.Sink(c) {
		t.Fatalf("veth result = %+v", res)
	}
	res.Sink.DeliverSKB(500, skb)
	if len(c.Delivered) != 1 || c.Delivered[0].SKB != skb || c.Delivered[0].At != 500 {
		t.Fatalf("delivered = %+v", c.Delivered)
	}
}

func TestChainDriverKinds(t *testing.T) {
	c := NewChain(100, 16)
	kinds := []struct {
		dev  *netdev.Device
		want netdev.DriverKind
	}{
		{c.Eth, netdev.DriverNIC},
		{c.Br, netdev.DriverGroCells},
		{c.Veth, netdev.DriverBacklog},
	}
	for _, k := range kinds {
		if k.dev.Kind != k.want {
			t.Errorf("%s kind = %v, want %v", k.dev.Name, k.dev.Kind, k.want)
		}
	}
}

type fakeSched struct {
	calls []*netdev.Device
	highs []bool
}

func (f *fakeSched) NotifyArrival(dev *netdev.Device, high bool) {
	f.calls = append(f.calls, dev)
	f.highs = append(f.highs, high)
}

func TestInjectBatchesOneIRQ(t *testing.T) {
	c := NewChain(100, 16)
	fs := &fakeSched{}
	c.Inject(fs, 3, true, 42, 10)
	if len(fs.calls) != 1 || fs.calls[0] != c.Eth {
		t.Fatalf("NotifyArrival calls = %v, want one for eth", fs.calls)
	}
	if fs.highs[0] {
		t.Error("DMA-burst IRQ carried a priority hint; the ring cannot know priority")
	}
	var ids []uint64
	for !c.Eth.LowQ.Empty() {
		s := c.Eth.LowQ.Dequeue()
		ids = append(ids, s.ID)
		if !s.HighPriority || s.Arrived != 42 {
			t.Errorf("skb %d = %+v", s.ID, s)
		}
	}
	if len(ids) != 3 || ids[0] != 10 || ids[1] != 11 || ids[2] != 12 {
		t.Errorf("ids = %v, want [10 11 12]", ids)
	}
}

// TestChainThroughSoftirq drives the synthetic pipeline through a real
// softirq engine and checks packets complete in FIFO order.
func TestChainThroughSoftirq(t *testing.T) {
	eng := sim.NewEngine(1)
	rx := napi.NewEngine(eng, cpu.NewCore(1, nil), TestCosts())
	c := NewChain(100, 64)
	eng.At(0, func() { c.Inject(rx, 5, false, 0, 1) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(c.Delivered) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(c.Delivered))
	}
	for i, d := range c.Delivered {
		if d.SKB.ID != uint64(i+1) {
			t.Errorf("delivery %d has ID %d, want FIFO order", i, d.SKB.ID)
		}
		if d.SKB.Stage != 3 {
			t.Errorf("delivery %d completed %d stages, want 3", i, d.SKB.Stage)
		}
	}
	st := rx.Stats()
	if st.Packets != 15 {
		t.Errorf("engine processed %d stage-passes, want 15 (5 packets x 3 stages)", st.Packets)
	}
	if st.Delivered != 5 || st.Dropped != 0 {
		t.Errorf("delivered/dropped = %d/%d, want 5/0", st.Delivered, st.Dropped)
	}
}

func TestTestCostsRoundNumbers(t *testing.T) {
	costs := TestCosts()
	if costs.BatchSize != 64 || costs.Budget != 300 {
		t.Errorf("batch/budget = %d/%d, want the kernel defaults 64/300", costs.BatchSize, costs.Budget)
	}
	if costs.NICPacket != costs.BridgePacket || costs.BridgePacket != costs.VethPacket {
		t.Error("per-stage costs differ; chain assertions rely on uniform stage cost")
	}
}
