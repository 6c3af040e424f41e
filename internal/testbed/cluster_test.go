package testbed_test

import (
	"strings"
	"testing"

	"prism/internal/cluster"
	"prism/internal/cpu"
	"prism/internal/nic"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
)

// settledCluster runs a small two-rack cluster of testbed-built hosts,
// checks its ledger mid-run, settles it and checks it strictly. The tests
// below then break the fabric equation Cluster.CheckInvariants closes over
// testbed.CheckHosts, one exported counter at a time.
func settledCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	specs := []cluster.ContainerSpec{{Flood: true, Rate: 20_000, Ingress: 0}}
	for i := 1; i < 16; i++ {
		specs = append(specs, cluster.ContainerSpec{Hi: i%5 == 0, Rate: 2_000, Ingress: -1})
	}
	c, err := cluster.New(cluster.Config{
		Hosts:     4,
		Placement: cluster.PlacePriority,
		Seed:      5,
		Host: testbed.Spec{
			Mode:       prio.ModeSync,
			CStates:    cpu.C1,
			AppCStates: cpu.C1,
			NIC:        nic.Config{RxUsecs: 8 * sim.Microsecond, RxFrames: 32, GRO: true},
		},
		Specs:  specs,
		Fabric: cluster.FabricConfig{Racks: 2},
		Warmup: 2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("mid-run snapshot flagged: %v", err)
	}
	if err := c.Settle(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("settled cluster flagged: %v", err)
	}
	return c
}

// TestCheckClusterAggregatesHosts checks that the fabric equation closes
// over the hosts' ledgers: every frame that entered the fabric reached a
// host, a client, or an attributed drop, and a frame still riding the
// fabric balances only through the in-flight term, and only non-strictly.
func TestCheckClusterAggregatesHosts(t *testing.T) {
	c := settledCluster(t)
	var injected, fromFabric uint64
	for _, n := range c.Nodes {
		injected += n.Injected
		fromFabric += n.FromFabric
	}
	if injected == 0 || fromFabric == 0 {
		t.Fatalf("setup: fabric idle: %d injected, %d delivered to hosts", injected, fromFabric)
	}

	n := c.Nodes[0]
	n.Injected++
	n.Up.Send(n.Host.Eng.Now(), n.Up.Lookahead, make([]byte, 64), uint32(cluster.SvcPort(0)))
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("frame in flight flagged non-strictly: %v", err)
	}
	if err := c.CheckInvariants(true); err == nil {
		t.Error("strict check accepted a fabric still holding frames")
	} else if !strings.Contains(err.Error(), "still holds") {
		t.Errorf("strict in-flight error unclear: %v", err)
	}
}

// TestCheckClusterDetectsBrokenTerms breaks each fabric equation in turn
// and demands a distinct, attributable error, then restores the counter
// and demands balance again.
func TestCheckClusterDetectsBrokenTerms(t *testing.T) {
	c := settledCluster(t)
	expect := func(what string, wants ...string) {
		t.Helper()
		err := c.CheckInvariants(true)
		if err == nil {
			t.Fatalf("%s not detected", what)
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error lacks %q: %v", what, w, err)
			}
		}
	}
	restored := func(what string) {
		t.Helper()
		if err := c.CheckInvariants(true); err != nil {
			t.Fatalf("balance not restored after %s: %v", what, err)
		}
	}

	n := c.Nodes[2]
	n.FromFabric++
	expect("fabric/host handoff mismatch", "fabric handoff broken", "per-host terms", "host02: ")
	n.FromFabric--
	restored("handoff mismatch")

	n.Injected += 3 // three frames entered and vanished
	expect("fabric leak", "fabric conservation broken", "per-host terms")
	n.Injected -= 3
	restored("fabric leak")

	tor := c.Tors[0]
	tor.RxFrames++
	expect("switch leak", "tor00 conservation broken", "per-switch terms")
	tor.RxFrames--
	restored("switch leak")
}
