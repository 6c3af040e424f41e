package cluster

import (
	"reflect"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// dropLedger is every drop counter of the fabric and the host wires,
// plus each port's forwarded count.
type dropLedger struct {
	Unroutable []uint64    // per switch, ToRs then spine
	Ports      [][4]uint64 // Dropped, ShedLo, DownDropped, Forwarded
	Nodes      [][4]uint64 // Misrouted, CrashRx, CrashTx, EpochDrops
}

func (c *Cluster) dropLedger() dropLedger {
	var l dropLedger
	for _, sw := range c.switches() {
		l.Unroutable = append(l.Unroutable, sw.Unroutable)
		for _, p := range sw.Ports {
			l.Ports = append(l.Ports, [4]uint64{p.Dropped, p.ShedLo, p.DownDropped, p.Forwarded})
		}
	}
	for _, n := range c.Nodes {
		l.Nodes = append(l.Nodes, [4]uint64{n.Misrouted, n.CrashRx, n.CrashTx, n.EpochDrops})
	}
	return l
}

// unparseableFrames cannot be routed: a VXLAN frame whose inner IPv4
// checksum is bad, one whose outer checksum is bad, and a runt.
func unparseableFrames() [][]byte {
	outer := func() []byte {
		return pkt.EncapUDPInto(nil, pkt.VXLANSpec{SrcPort: 1, VNI: 1}, pkt.UDPFrameSpec{
			SrcPort: CliPort(0), DstPort: SvcPort(0), Payload: make([]byte, 18),
		})
	}
	badInner, badOuter := outer(), outer()
	badInner[pkt.VXLANOverhead+pkt.EthHeaderLen+10] ^= 0xff
	badOuter[pkt.EthHeaderLen+10] ^= 0xff
	return [][]byte{badInner, badOuter, {1, 2, 3}}
}

// TestUnparseableFrameUnroutableAtTor sends frames that do not parse up a
// host's uplink mid-run. Each must be counted Unroutable at that host's
// ToR, and every other drop counter must equal a run without them.
func TestUnparseableFrameUnroutableAtTor(t *testing.T) {
	run := func(garbage [][]byte) *Cluster {
		c, err := New(smallConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		n := c.Nodes[2]
		at := 3 * sim.Millisecond
		n.Host.Eng.At(at, func() {
			for _, f := range garbage {
				n.Host.WireTx(at, at+n.Up.Lookahead, f)
			}
		})
		if err := c.Run(10*sim.Millisecond, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(1); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(true); err != nil {
			t.Fatal(err)
		}
		return c
	}
	garbage := unparseableFrames()
	c := run(garbage)
	base, got, rack := run(nil).dropLedger(), c.dropLedger(), c.rackOf(2)
	if d := got.Unroutable[rack] - base.Unroutable[rack]; d != uint64(len(garbage)) {
		t.Fatalf("tor%02d counted %d more unroutable frames, want %d", rack, d, len(garbage))
	}
	got.Unroutable[rack] = base.Unroutable[rack]
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("drop counters moved:\n got %+v\nwant %+v", got, base)
	}
}

// TestFrameInFlightAcrossSwapIsEpochDrop sends one request across the
// spine to the host serving it and, while the frame is on that host's
// downlink, swaps in a snapshot that moves the flow elsewhere. The frame
// was routed under the old snapshot, so the host must count it in
// EpochDrops, not deliver it and not call it misrouted.
func TestFrameInFlightAcrossSwapIsEpochDrop(t *testing.T) {
	cfg := smallConfig(9)
	cfg.Recovery = &RecoveryConfig{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(5*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(1); err != nil {
		t.Fatal(err)
	}
	// An echo flow and an ingress host in the other rack.
	flow := -1
	for i, f := range c.Flows {
		if f.PP != nil {
			flow = i
			break
		}
	}
	dst := c.Nodes[c.Assignment[flow]]
	src := c.Nodes[(dst.ID+c.perRack)%len(c.Nodes)]
	tor := c.Tors[c.rackOf(dst.ID)]
	var downlink *Port
	for _, p := range tor.Ports {
		if p.Name == tor.Name+"->"+dst.Name {
			downlink = p
		}
	}
	frame := pkt.EncapUDPInto(nil, pkt.VXLANSpec{SrcPort: 1, VNI: 1}, pkt.UDPFrameSpec{
		SrcPort: CliPort(flow), DstPort: SvcPort(flow), Payload: make([]byte, 18),
	})
	now := src.Host.Eng.Now() + sim.Microsecond
	src.Host.Eng.At(now, func() { src.Host.WireTx(now, now+src.Up.Lookahead, frame) })

	before, fromFabric, forwarded := c.EpochDrops(), dst.FromFabric, downlink.Forwarded
	end := now
	for downlink.Forwarded == forwarded {
		end += 100 * sim.Nanosecond
		if end > now+sim.Millisecond {
			t.Fatal("the request never left the destination ToR")
		}
		if err := c.Group.Run(end, 1); err != nil {
			t.Fatal(err)
		}
	}
	routes := c.Snapshot().cloneRoutes()
	rt := routes[SvcPort(flow)]
	rt.Host = src.ID
	routes[SvcPort(flow)] = rt
	if err := c.SwapSnapshot(NewSnapshot(c.Snapshot().Version+1, routes)); err != nil {
		t.Fatal(err)
	}
	if err := c.Group.Run(end+sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.EpochDrops() - before; got != 1 {
		t.Fatalf("epoch drops grew by %d, want 1", got)
	}
	if dst.FromFabric != fromFabric || dst.Misrouted != 0 {
		t.Fatalf("host delivered %d frames and misrouted %d; want none",
			dst.FromFabric-fromFabric, dst.Misrouted)
	}
}
