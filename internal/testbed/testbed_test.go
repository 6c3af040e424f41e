package testbed

import (
	"testing"

	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/sim"
)

func TestMonolithicTopology(t *testing.T) {
	pipe := obs.NewPipeline("host")
	tb := New(Spec{Seed: 1, Mode: prio.ModeVanilla, Pipe: pipe})
	if tb.Eng == nil || tb.Host == nil || tb.Client == nil {
		t.Fatal("testbed is missing its engine, host or client")
	}
	if tb.Host.Eng != tb.Eng {
		t.Error("host is not on the testbed's engine")
	}
	if tb.Pipe != pipe {
		t.Error("caller's pipeline not installed")
	}
	if tb.Plane != nil {
		t.Error("fault plane built without a Spec.Fault")
	}
}

func TestBatchSizeAppliedAfterBuild(t *testing.T) {
	// The override must be applied to the host after construction, so it
	// wins regardless of where the Costs came from.
	tb := New(Spec{Seed: 1, RxQueues: 2, BatchSize: 16})
	if len(tb.Host.Rxs) != 2 {
		t.Fatalf("host has %d RX queues, want 2", len(tb.Host.Rxs))
	}
	if tb.Host.Costs.BatchSize != 16 {
		t.Errorf("BatchSize = %d, want 16", tb.Host.Costs.BatchSize)
	}
}

func TestMonolithicRunDeterministic(t *testing.T) {
	run := func() uint64 {
		tb := New(Spec{Seed: 7, Mode: prio.ModeVanilla})
		host := tb.Host
		// Drive a handful of host-path frames through the full pipeline.
		for i := 0; i < 5; i++ {
			frame := overlay.HostUDPToServer(4000, 5000, []byte{byte(i)})
			at := sim.Time(1000 * (i + 1))
			tb.Eng.At(at, func() { host.InjectFromWire(at, frame) })
		}
		if err := tb.Run(0, sim.Time(1_000_000)); err != nil {
			t.Fatal(err)
		}
		// End-of-run hygiene: every injected frame is accounted for and the
		// SKB/frame pools are back in balance (strict once the queue drains).
		if err := tb.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return host.Rx.Stats().Packets
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same Spec produced different packet counts: %d vs %d", a, b)
	}
}

// TestInvariantsCatchLeaks guards the checker itself: a fabricated pool
// imbalance must be reported, so a silent pass can't hide a broken ledger.
func TestInvariantsCatchLeaks(t *testing.T) {
	tb := New(Spec{Seed: 3, Mode: prio.ModeVanilla})
	host := tb.Host
	frame := overlay.HostUDPToServer(4000, 5000, []byte("leak"))
	tb.Eng.At(1000, func() { host.InjectFromWire(1000, frame) })
	if err := tb.Run(0, sim.Time(1_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	// Fabricate a phantom wire arrival: conservation must break.
	host.RxWire++
	if err := tb.CheckInvariants(); err == nil {
		t.Error("unaccounted wire frame not detected")
	}
	host.RxWire--
	if err := tb.CheckInvariants(); err != nil {
		t.Errorf("balance not restored: %v", err)
	}
}
