// Package sched models application threads: serial execution contexts
// bound to a core, with wakeup latency when scheduled in from idle. It is
// deliberately minimal — the paper's experiments pin one application per
// core — but it captures the two effects that matter to the results: a
// blocked server thread pays a wakeup (scheduler + cross-core IPI) before
// touching a freshly delivered packet, and requests serialize on a busy
// single-threaded server (which is what collapses memcached throughput in
// Fig. 12).
package sched

import (
	"prism/internal/cpu"
	"prism/internal/sim"
)

// Thread is a serial work queue bound to a core.
type Thread struct {
	Name string

	eng    *sim.Engine
	core   *cpu.Core
	wakeup sim.Time

	// Jobs counts submitted work items; WakeupCount counts schedule-ins
	// from idle.
	Jobs        uint64
	WakeupCount uint64
}

// NewThread binds a thread to a core. wakeup is the schedule-in latency
// paid when the thread was blocked (core idle at submission).
func NewThread(name string, eng *sim.Engine, core *cpu.Core, wakeup sim.Time) *Thread {
	return &Thread{Name: name, eng: eng, core: core, wakeup: wakeup}
}

// Core returns the thread's core.
func (t *Thread) Core() *cpu.Core { return t.core }

// Submit enqueues cost worth of work triggered at now. fn, if non-nil,
// runs fn(done, a1, a2) when the work completes — the sim.CallAt form: a
// top-level fn with pointer-shaped arguments makes the handoff
// allocation-free, where a capturing closure would cost one allocation
// per item. Work items execute serially in submission order.
func (t *Thread) Submit(now, cost sim.Time, fn func(done sim.Time, a1, a2 any), a1, a2 any) {
	done := t.schedule(now, cost)
	if fn != nil {
		t.eng.CallAt(done, fn, a1, a2)
	}
}

// schedule charges the work on the core (plus a wakeup when the thread was
// blocked) and returns its completion time.
func (t *Thread) schedule(now, cost sim.Time) sim.Time {
	t.Jobs++
	wasIdle := t.core.IdleAt(now)
	start := t.core.Acquire(now)
	if wasIdle {
		t.WakeupCount++
		start = t.core.Consume(start, t.wakeup)
	}
	return t.core.Consume(start, cost)
}

// Stall occupies the thread's core for dur without completing any work —
// the thread is preempted or wedged (fault injection's stalled-consumer
// class). Queued work items finish later by exactly the stall; nothing is
// counted as a job and no wakeup is paid.
func (t *Thread) Stall(now, dur sim.Time) {
	start := t.core.Acquire(now)
	t.core.Consume(start, dur)
}
