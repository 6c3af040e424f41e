package testbed

import (
	"strings"
	"testing"

	"prism/internal/fault"
	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/sim"
)

// buildClusterRig assembles n independent hosts via BuildHost — the same
// entry point the cluster topology uses — each on its own engine, drives a
// distinct number of frames through each, and drains them.
func buildClusterRig(t *testing.T, n int, withFault bool) ([]*overlay.Host, []*fault.Plane) {
	t.Helper()
	spec := Spec{Mode: prio.ModeVanilla}
	hosts := make([]*overlay.Host, n)
	planes := make([]*fault.Plane, n)
	for i := 0; i < n; i++ {
		eng := sim.NewEngine(uint64(100 + i))
		hspec := spec
		hspec.Seed = uint64(100 + i)
		if withFault && i%2 == 1 {
			// Corruption only: corrupted frames still traverse the full
			// pipeline (dropped with an attributed verdict), so the drained
			// ledgers stay strict without a rescue pass.
			hspec.Fault = &fault.Config{Seed: uint64(7 + i), Rate: 0.5, Classes: fault.ClassCorrupt}
		}
		h, _, plane := hspec.BuildHost(eng, "h")
		if withFault && i%2 == 1 {
			plane.Start(0)
		}
		frames := 3 + 2*i // distinct per host, so aggregation bugs can't cancel
		for f := 0; f < frames; f++ {
			frame := overlay.HostUDPToServer(4000, 5000, []byte{byte(f)})
			at := sim.Time(1000 * (f + 1))
			eng.At(at, func() { h.InjectFromWire(at, frame) })
		}
		if err := eng.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if eng.Pending() != 0 {
			t.Fatalf("host %d did not drain: %d pending events", i, eng.Pending())
		}
		hosts[i], planes[i] = h, plane
	}
	return hosts, planes
}

// TestCheckClusterSurfacesHostIdentity breaks one host's own ledger and
// requires the per-host checker the cluster ledger runs first to name it —
// cluster-wide totals must not wash out a single bad rig.
func TestCheckClusterSurfacesHostIdentity(t *testing.T) {
	hosts, planes := buildClusterRig(t, 3, false)
	hosts[1].RxWire++ // phantom arrival on the middle host
	err := CheckHosts(hosts, planes, true)
	if err == nil {
		t.Fatal("broken host ledger not detected")
	}
	if !strings.Contains(err.Error(), "host1") {
		t.Errorf("error does not name the offending host: %v", err)
	}
	hosts[1].RxWire--
	if err := CheckHosts(hosts, planes, true); err != nil {
		t.Errorf("balance not restored: %v", err)
	}
}

// TestCheckClusterWithFaultPlanes pairs fault planes with only some hosts
// (index-aligned, nil for the rest) and checks the hosts still balance:
// injected corruption shows up as attributed drops inside the per-host
// ledgers, never as a discrepancy.
func TestCheckClusterWithFaultPlanes(t *testing.T) {
	hosts, planes := buildClusterRig(t, 4, true)
	injected := false
	for _, p := range planes {
		if p != nil && p.Stats().Corrupted > 0 {
			injected = true
		}
	}
	if !injected {
		t.Fatal("fault planes injected nothing; raise the rate or frame count")
	}
	if err := CheckHosts(hosts, planes, true); err != nil {
		t.Fatalf("faulted cluster flagged: %v", err)
	}
}

// TestBuildHostWiring covers the BuildHost entry point itself: the caller's
// pipeline must be honored, a default one built when absent, and a Fault
// spec must come back as a live plane threaded into the host.
func TestBuildHostWiring(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := Spec{Seed: 1, Mode: prio.ModeVanilla}
	_, pipe, plane := spec.BuildHost(eng, "solo")
	if pipe == nil {
		t.Error("BuildHost without a Spec.Pipe must build its own pipeline")
	}
	if plane != nil {
		t.Error("BuildHost grew a fault plane without a Fault spec")
	}

	spec.Fault = &fault.Config{Seed: 2, Rate: 0.1}
	_, _, plane = spec.BuildHost(sim.NewEngine(2), "faulted")
	if plane == nil {
		t.Error("BuildHost ignored the Fault spec")
	}
}
