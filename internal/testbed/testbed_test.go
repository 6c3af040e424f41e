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

// TestStartAppliesFlowShaping checks that an explicit flood shaping value
// reaches the generator even when it is the zero value (jitter 0) or
// the generator's default (Poisson on), that unset fields keep the
// generator's defaults, and that Settle stops and drains every flow.
func TestStartAppliesFlowShaping(t *testing.T) {
	tb := New(Spec{Seed: 5, Mode: prio.ModeSync})
	on, zero := true, 0.0
	srcs, err := tb.Start(sim.Millisecond, 500, 600,
		Flow{Kind: Echo, Container: "hi", Hi: true, Port: 11111, Rate: 1000},
		Flow{Kind: Flood, Container: "bg", Port: 5001, Client: 1, Rate: 20_000, Senders: 2,
			Burst: 8, Poisson: &on, JitterFrac: &zero},
		Flow{Kind: Flood, Container: "def", Port: 5002, Client: 3, Rate: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	bg := srcs[1].Floods
	if len(bg) != 2 || bg[1].Src.Port != 40002 || bg[0].Rate != 10_000 {
		t.Fatalf("senders not fanned out over clients 1 and 2 at half rate each: %+v", bg)
	}
	for _, fl := range bg {
		if !fl.Poisson || fl.JitterFrac != 0 || fl.Burst != 8 {
			t.Errorf("explicit shaping lost: poisson=%v jitter=%v burst=%d", fl.Poisson, fl.JitterFrac, fl.Burst)
		}
	}
	def := srcs[2].Floods[0]
	if !def.Poisson || def.JitterFrac != 0.2 || def.Burst != 64 {
		t.Errorf("defaults not kept: poisson=%v jitter=%v burst=%d", def.Poisson, def.JitterFrac, def.Burst)
	}
	if err := tb.Run(sim.Millisecond, 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if srcs[0].PP.Received == 0 || srcs[1].Delivered().Count() == 0 {
		t.Fatal("flows delivered nothing")
	}
	if err := tb.Settle(); err != nil {
		t.Fatal(err)
	}
	if tb.Eng.Pending() != 0 {
		t.Error("Settle left events pending")
	}
}
