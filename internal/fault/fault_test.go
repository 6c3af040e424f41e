package fault

import (
	"bytes"
	"testing"

	"prism/internal/sim"
)

// TestNilPlaneIsInert pins the hook contract: every method on a nil plane
// is a no-op returning the pass-through value, so unfaulted builds pay
// nothing and change nothing.
func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	frame := []byte{1, 2, 3, 4}
	out, drop, delay := p.WireRx(0, frame)
	if &out[0] != &frame[0] || drop || delay != 0 {
		t.Error("nil plane touched a wire frame")
	}
	if p.RingOverrun(0, "eth0") || p.DropIRQ(0, "eth0") || p.SoftirqStall(0) != 0 {
		t.Error("nil plane injected a fault")
	}
	if p.RescueStuck(0) != 0 {
		t.Error("nil plane rescued something")
	}
	p.Start(0)
	p.Watch(nil)
	p.WatchConsumer(nil)
	if p.Stats() != (Counters{}) {
		t.Error("nil plane has counters")
	}
}

// TestRateZeroPassesThrough: a constructed plane at rate 0 must behave
// exactly like a nil one on the injection paths.
// TestCountersInjected gives every counter a distinct power of two, so the
// sum shows exactly which terms it includes: a dropped or extra term
// changes the result.
func TestCountersInjected(t *testing.T) {
	c := Counters{
		WireFrames:      1 << 0,
		Corrupted:       1 << 1,
		LinkFlaps:       1 << 2,
		LinkDropped:     1 << 3,
		Jittered:        1 << 4,
		OverrunBursts:   1 << 5,
		OverrunDropped:  1 << 6,
		IRQsLost:        1 << 7,
		IRQsSpurious:    1 << 8,
		SoftirqStalls:   1 << 9,
		ConsumerStalls:  1 << 10,
		WatchdogRescues: 1 << 11,
		HostCrashes:     1 << 12,
		TorLinkDowns:    1 << 13,
	}
	want := uint64(1<<1 | 1<<3 | 1<<4 | 1<<6 | 1<<7 | 1<<8 | 1<<9 | 1<<10 | 1<<12)
	if got := c.Injected(); got != want {
		t.Errorf("Injected() = %#b, want %#b", got, want)
	}
	if got := (Counters{}).Injected(); got != 0 {
		t.Errorf("zero counters: Injected() = %d", got)
	}
}

func TestRateZeroPassesThrough(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPlane(eng, Config{Seed: 1, Rate: 0})
	frame := []byte{9, 9, 9}
	for i := 0; i < 1000; i++ {
		out, drop, delay := p.WireRx(sim.Time(i), frame)
		if &out[0] != &frame[0] || drop || delay != 0 {
			t.Fatal("rate-0 plane touched a wire frame")
		}
		if p.RingOverrun(sim.Time(i), "eth0") || p.DropIRQ(sim.Time(i), "eth0") {
			t.Fatal("rate-0 plane injected a fault")
		}
	}
	if p.Stats() != (Counters{}) {
		t.Errorf("rate-0 plane counted something: %+v", p.Stats())
	}
}

// TestWireRxDeterministic: two planes with the same seed produce the same
// corruption/drop/jitter sequence; a different seed diverges.
func TestWireRxDeterministic(t *testing.T) {
	run := func(seed uint64) (drops int, sum int) {
		eng := sim.NewEngine(1)
		p := NewPlane(eng, Config{Seed: seed, Rate: 0.5})
		frame := bytes.Repeat([]byte{0xAA}, 64)
		for i := 0; i < 5000; i++ {
			out, drop, delay := p.WireRx(sim.Time(i)*1000, frame)
			if drop {
				drops++
				continue
			}
			sum += int(delay % 251)
			for _, b := range out {
				sum += int(b)
			}
		}
		return
	}
	d1, s1 := run(42)
	d2, s2 := run(42)
	if d1 != d2 || s1 != s2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, s1, d2, s2)
	}
	if d3, s3 := run(7); d1 == d3 && s1 == s3 {
		t.Error("different seeds produced identical fault streams")
	}
	if d1 == 0 {
		t.Error("no link drops at rate 0.5")
	}
}

// TestCorruptionNeverMutatesInput: corruption must copy into scratch, not
// flip bits in the caller's (possibly pooled and reused) buffer.
func TestCorruptionNeverMutatesInput(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPlane(eng, Config{Seed: 3, Rate: 1, Classes: ClassCorrupt})
	frame := bytes.Repeat([]byte{0x55}, 128)
	orig := bytes.Clone(frame)
	corrupted := 0
	for i := 0; i < 2000; i++ {
		out, drop, _ := p.WireRx(sim.Time(i), frame)
		if drop {
			t.Fatal("ClassCorrupt alone produced a link drop")
		}
		if !bytes.Equal(frame, orig) {
			t.Fatal("caller's frame mutated in place")
		}
		if !bytes.Equal(out, orig) {
			corrupted++
			if len(out) != len(orig) {
				t.Fatalf("corruption changed frame length: %d != %d", len(out), len(orig))
			}
		}
	}
	if corrupted == 0 {
		t.Error("rate 1 never corrupted a frame")
	}
	if got := p.Stats().Corrupted; got != uint64(corrupted) {
		t.Errorf("Corrupted = %d, observed %d", got, corrupted)
	}
}

// TestClassGating: a plane restricted to one class must never fire the
// others.
func TestClassGating(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPlane(eng, Config{Seed: 5, Rate: 1, Classes: ClassRing})
	frame := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 2000; i++ {
		out, drop, delay := p.WireRx(sim.Time(i), frame)
		if drop || delay != 0 || !bytes.Equal(out, frame) {
			t.Fatal("ClassRing plane fired a wire fault")
		}
	}
	c := p.Stats()
	if c.Corrupted != 0 || c.LinkFlaps != 0 || c.Jittered != 0 {
		t.Errorf("wire counters moved under ClassRing: %+v", c)
	}
	overruns := 0
	for i := 0; i < 2000; i++ {
		if p.RingOverrun(sim.Time(i), "eth0") {
			overruns++
		}
	}
	if overruns == 0 {
		t.Error("ClassRing plane never overran the ring")
	}
}

// TestPhaseWindowConfinesInjection: with Phases configured, per-event
// hooks inject only inside their window and pass through (no RNG draws,
// so no divergence) everywhere else.
func TestPhaseWindowConfinesInjection(t *testing.T) {
	eng := sim.NewEngine(1)
	from, until := 10*sim.Millisecond, 20*sim.Millisecond
	p := NewPlane(eng, Config{Seed: 9, Phases: []Phase{{From: from, Until: until, Rate: 1}}})
	frame := bytes.Repeat([]byte{0x33}, 64)
	insideFired, outsideFired := false, false
	for i := 0; i < 30000; i++ {
		now := sim.Time(i) * sim.Microsecond
		out, drop, delay := p.WireRx(now, frame)
		over := p.RingOverrun(now, "eth0")
		irq := p.DropIRQ(now, "eth0")
		stall := p.SoftirqStall(now)
		fired := drop || delay != 0 || !bytes.Equal(out, frame) || over || irq || stall != 0
		switch {
		case now >= from && now < until:
			insideFired = insideFired || fired
		case fired:
			outsideFired = true
		}
	}
	if !insideFired {
		t.Error("rate-1 phase never injected inside its window")
	}
	if outsideFired {
		t.Error("phase plane injected outside its window")
	}
}

// TestPhasePreWindowMatchesUnfaulted: before the first phase opens, a
// windowed plane's hook answers are bit-identical to a nil plane's — the
// quiescent stretches draw nothing from the RNG.
func TestPhasePreWindowMatchesUnfaulted(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPlane(eng, Config{Seed: 4, Phases: []Phase{{From: 50 * sim.Millisecond, Rate: 1}}})
	frame := []byte{7, 7, 7, 7}
	for i := 0; i < 5000; i++ {
		now := sim.Time(i) * sim.Microsecond // all < From
		out, drop, delay := p.WireRx(now, frame)
		if &out[0] != &frame[0] || drop || delay != 0 {
			t.Fatal("pre-window WireRx diverged from pass-through")
		}
		if p.RingOverrun(now, "eth0") || p.DropIRQ(now, "eth0") || p.SoftirqStall(now) != 0 {
			t.Fatal("pre-window hook injected")
		}
	}
	c := p.Stats()
	if c.Corrupted != 0 || c.LinkFlaps != 0 || c.OverrunDropped != 0 || c.IRQsLost != 0 || c.SoftirqStalls != 0 {
		t.Errorf("pre-window counters moved: %+v", c)
	}
}

// TestPhaseClassesAndTimeline: phase Classes gate per-event hooks the
// same way flat Classes do, and timeline chains (spurious IRQs) arm only
// inside their phase's window.
func TestPhaseClassesAndTimeline(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPlane(eng, Config{
		Seed: 2,
		Phases: []Phase{
			{From: 5 * sim.Millisecond, Until: 15 * sim.Millisecond, Rate: 1, Classes: ClassRing},
		},
	})
	dev := &stubDevice{name: "eth0"}
	p.Watch(dev)
	p.Start(40 * sim.Millisecond)

	// ClassRing only: the wire hook must stay silent even mid-window.
	frame := []byte{1, 2, 3, 4}
	out, drop, delay := p.WireRx(10*sim.Millisecond, frame)
	if drop || delay != 0 || !bytes.Equal(out, frame) {
		t.Error("ClassRing phase fired a wire fault")
	}
	if err := eng.Run(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if dev.spurios == 0 {
		t.Error("phase never raised a spurious IRQ inside its window")
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events pending after horizon", eng.Pending())
	}
}

type stubDevice struct {
	name    string
	stuck   bool
	rearms  int
	spurios int
}

func (d *stubDevice) DeviceName() string       { return d.name }
func (d *stubDevice) Stuck() bool              { return d.stuck }
func (d *stubDevice) RearmIRQ(now sim.Time)    { d.rearms++ }
func (d *stubDevice) SpuriousIRQ(now sim.Time) { d.spurios++ }

// TestWatchdogRescuesStuckDevice: the watchdog timeline runs even at rate
// 0 (it is hardening, not injection) and re-arms only stuck devices.
func TestWatchdogRescuesStuckDevice(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPlane(eng, Config{Seed: 1, Rate: 0})
	healthy := &stubDevice{name: "eth0"}
	wedged := &stubDevice{name: "eth1", stuck: true}
	p.Watch(healthy)
	p.Watch(wedged)
	p.Start(10 * sim.Millisecond)
	if err := eng.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if healthy.rearms != 0 {
		t.Errorf("healthy device re-armed %d times", healthy.rearms)
	}
	if wedged.rearms == 0 {
		t.Error("stuck device never rescued")
	}
	if got := p.Stats().WatchdogRescues; got != uint64(wedged.rearms) {
		t.Errorf("WatchdogRescues = %d, device saw %d", got, wedged.rearms)
	}
	// Timelines stop at the horizon: the engine must go idle.
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events pending after horizon", eng.Pending())
	}
}
