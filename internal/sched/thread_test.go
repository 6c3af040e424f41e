package sched

import (
	"testing"

	"prism/internal/cpu"
	"prism/internal/sim"
)

func TestThreadWakeupFromIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	core := cpu.NewCore(1, nil)
	th := NewThread("app", eng, core, 3000)
	var done sim.Time
	eng.At(100, func() {
		th.Submit(100, 500, func(d sim.Time, _, _ any) { done = d }, nil, nil)
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 100 (submit) + 3000 (wakeup) + 500 (work).
	if done != 3600 {
		t.Errorf("done = %v, want 3600", done)
	}
	if th.WakeupCount != 1 || th.Jobs != 1 {
		t.Errorf("wakeups/jobs = %d/%d", th.WakeupCount, th.Jobs)
	}
}

func TestThreadBackloggedSkipsWakeup(t *testing.T) {
	eng := sim.NewEngine(1)
	core := cpu.NewCore(1, nil)
	th := NewThread("app", eng, core, 3000)
	var dones []sim.Time
	eng.At(0, func() {
		th.Submit(0, 1000, func(d sim.Time, _, _ any) { dones = append(dones, d) }, nil, nil)
		th.Submit(0, 1000, func(d sim.Time, _, _ any) { dones = append(dones, d) }, nil, nil)
		th.Submit(0, 1000, func(d sim.Time, _, _ any) { dones = append(dones, d) }, nil, nil)
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// First pays wakeup (3000); the rest queue behind it.
	want := []sim.Time{4000, 5000, 6000}
	for i := range want {
		if dones[i] != want[i] {
			t.Errorf("done[%d] = %v, want %v", i, dones[i], want[i])
		}
	}
	if th.WakeupCount != 1 {
		t.Errorf("WakeupCount = %d, want 1 (serial backlog)", th.WakeupCount)
	}
}

func TestThreadSerialOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	core := cpu.NewCore(1, nil)
	th := NewThread("app", eng, core, 0)
	var order []int
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			i := i
			th.Submit(0, 100, func(sim.Time, any, any) { order = append(order, i) }, nil, nil)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if th.Core() != core {
		t.Error("Core() mismatch")
	}
}

func TestThreadNilCallback(t *testing.T) {
	eng := sim.NewEngine(1)
	core := cpu.NewCore(1, nil)
	th := NewThread("app", eng, core, 0)
	eng.At(0, func() { th.Submit(0, 100, nil, nil, nil) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if core.BusyTotal() != 100 {
		t.Errorf("BusyTotal = %v", core.BusyTotal())
	}
}

func TestThreadCStateInteraction(t *testing.T) {
	eng := sim.NewEngine(1)
	core := cpu.NewCore(1, cpu.C1)
	th := NewThread("app", eng, core, 1000)
	var done sim.Time
	at := sim.Time(10 * sim.Millisecond) // long idle: C1 exit applies
	eng.At(at, func() { th.Submit(at, 500, func(d sim.Time, _, _ any) { done = d }, nil, nil) })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := at + cpu.C1[0].ExitLatency + 1000 + 500
	if done != want {
		t.Errorf("done = %v, want %v (C-state exit + wakeup + work)", done, want)
	}
}
