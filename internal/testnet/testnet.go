// Package testnet provides synthetic device chains for engine-level tests:
// a fixed-cost eth→br→veth pipeline with canned handlers, independent of
// the real protocol handlers. It lets the NAPI engine tests assert
// scheduling behaviour (poll order, preemption, budgets) in isolation.
package testnet

import (
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// Chain is a three-stage synthetic pipeline.
type Chain struct {
	Eth, Br, Veth *netdev.Device

	// Delivered records (skb, time) for every packet that completed the
	// pipeline, in delivery order.
	Delivered []Delivery

	// StageCost is charged per packet at every stage.
	StageCost sim.Time
}

// Delivery is one completed packet.
type Delivery struct {
	SKB *pkt.SKB
	At  sim.Time
}

// NewChain builds the synthetic pipeline. Packets flow eth→br→veth and the
// chain itself is the veth stage's sink, recording each delivery. Each stage charges stageCost per packet.
func NewChain(stageCost sim.Time, queueCap int) *Chain {
	c := &Chain{StageCost: stageCost}
	c.Veth = netdev.NewDevice("veth", netdev.DriverBacklog, netdev.HandlerFunc(
		func(now sim.Time, s *pkt.SKB) netdev.Result {
			return netdev.Result{Verdict: netdev.VerdictDeliver, Cost: stageCost, Sink: c}
		}), queueCap)
	c.Br = netdev.NewDevice("br", netdev.DriverGroCells, netdev.HandlerFunc(
		func(now sim.Time, s *pkt.SKB) netdev.Result {
			return netdev.Result{Verdict: netdev.VerdictForward, Cost: stageCost, Next: c.Veth}
		}), queueCap)
	c.Eth = netdev.NewDevice("eth", netdev.DriverNIC, netdev.HandlerFunc(
		func(now sim.Time, s *pkt.SKB) netdev.Result {
			return netdev.Result{Verdict: netdev.VerdictForward, Cost: stageCost, Next: c.Br}
		}), queueCap)
	return c
}

// DeliverSKB implements netdev.Sink: it records the packet and its
// completion time. The chain keeps the SKB for the test to inspect, so it
// must not be pooled (Inject builds plain ones).
func (c *Chain) DeliverSKB(at sim.Time, s *pkt.SKB) {
	c.Delivered = append(c.Delivered, Delivery{SKB: s, At: at})
}

// Inject places n packets into the eth ring with the given priority flag
// and arrival timestamp, then notifies the scheduler once, as a NIC DMA
// burst followed by a single IRQ would.
func (c *Chain) Inject(sched netdev.Scheduler, n int, high bool, at sim.Time, firstID uint64) {
	for i := 0; i < n; i++ {
		c.Eth.LowQ.Enqueue(&pkt.SKB{ID: firstID + uint64(i), HighPriority: high, Arrived: at})
	}
	sched.NotifyArrival(c.Eth, false)
}

// TestCosts returns a cost model with simple round numbers for assertions.
func TestCosts() *netdev.Costs {
	return &netdev.Costs{
		NICPacket:        100,
		BridgePacket:     100,
		VethPacket:       100,
		HostPacket:       200,
		BatchOverhead:    1000,
		StageSwitch:      50,
		IRQ:              500,
		SoftirqRestart:   2000,
		GROPacket:        10,
		AppWakeup:        3000,
		AppTx:            2000,
		WireLatency:      1000,
		LinkBandwidthBps: 100e9,
		BatchSize:        64,
		Budget:           300,
	}
}
