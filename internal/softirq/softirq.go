// Package softirq is the unified per-CPU receive datapath: one engine
// owning the softirq raise/reraise machinery, the budget/time-limit
// polling loop, per-device batch polling, stage-transition application,
// delivery scheduling, and the trace/observability hooks — parameterized
// by a small PollPolicy interface.
//
// The paper's contribution (Fig. 2 vs Fig. 7) is a *scheduling policy*
// swap inside this one fixed loop: vanilla NAPI and PRISM differ only in
// how the poll list is ordered, which input queue a poll serves, and
// where a forwarded packet goes. Those decisions are exactly the
// PollPolicy surface; internal/napi and internal/core implement it in
// ~80 lines each, and the paper's ablations (head-insertion-only,
// dual-queue-only) are additional policies over the same runtime.
//
// The runtime guarantees — what no policy can change:
//
//   - IRQ cost accounting, softirq raise at the core's busy horizon and
//     re-raise after the ksoftirqd yield delay (Costs.SoftirqRestart).
//   - The overall softirq budget (Costs.Budget) and per-device batch
//     weight (Costs.BatchSize).
//   - Per-batch overhead, the I-cache stage-switch penalty, handler cost
//     charging, and the core's time ledger.
//   - Verdict semantics: delivery scheduling, drop accounting and
//     attribution, GRO absorption.
//
// What a policy may decide:
//
//   - Poll-list shape and ordering (one list, two lists, head insertion).
//   - Which input queue a device poll serves (low-only or high-first).
//   - Where a forwarded packet goes: the next stage's low or high queue,
//     with tail or head scheduling — or inline run-to-completion
//     (PRISM-sync), in which case the runtime executes the remaining
//     stages synchronously in the current batch.
package softirq

import (
	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/obs"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// PollObservation describes one iteration of the device polling loop, for
// trace tooling (Fig. 6 tables).
type PollObservation struct {
	Time      sim.Time
	Iteration uint64
	Device    string
	// PollList is the poll-list state after the iteration's re-enqueueing,
	// in poll order, as rendered by the policy (vanilla shows local then
	// global, matching the paper's traces).
	PollList []string
}

// Stats aggregates engine-level counters.
type Stats struct {
	SoftirqRuns uint64 // net_rx_action invocations
	Iterations  uint64 // device polls
	Packets     uint64 // packets processed through handlers
	Delivered   uint64 // packets that reached an application socket
	Dropped     uint64 // packets dropped by handlers or full queues
	// Shed counts the subset of Dropped evicted by the priority-aware
	// overload policy (low-priority victims displaced by high-priority
	// arrivals at a full stage queue).
	Shed uint64
}

// Queue is the dequeue surface of a device input queue; both flavours
// (FIFO low queue, level-ordered high queue) expose it.
type Queue interface {
	Dequeue() *pkt.SKB
	Empty() bool
}

// Route is a policy's decision for one forwarded packet. The zero value
// is the vanilla route: the next stage's low queue, tail scheduling.
type Route struct {
	// Sync runs the next stage inline in the current context
	// (run-to-completion, netif_receive_skb instead of netif_rx); the
	// other fields are ignored.
	Sync bool
	// High enqueues to the next device's high-priority queue instead of
	// its low queue.
	High bool
	// Head asks for head placement: a newly scheduled next device is
	// inserted at the poll-list head (Schedule), an already-listed one is
	// promoted (Promote).
	Head bool
}

// PollPolicy is the scheduling surface of the softirq datapath. The
// engine calls it only from simulation context; implementations need no
// locking. All poll-list state — including clearing Device.InPollList
// when a drained device leaves the list — belongs to the policy; the
// engine owns the InPollList *set* on the arrival/schedule paths (the
// NAPI_STATE_SCHED test-and-set).
type PollPolicy interface {
	// Arrive inserts a newly scheduled device on the hardware-IRQ path.
	// high is the driver's priority hint (NIC priority rings, §VII-1);
	// policies without head insertion ignore it.
	Arrive(dev *netdev.Device, high bool)
	// Begin marks the start of one net_rx_action run (vanilla moves the
	// global POLL_LIST onto its local working list here).
	Begin()
	// Next pops the next device to poll, or nil to end the run.
	Next() *netdev.Device
	// Requeue re-inserts a just-polled device according to its remaining
	// packets, or completes NAPI for it (clears InPollList, re-enabling
	// its IRQs).
	Requeue(dev *netdev.Device)
	// Finish ends the run (vanilla prepends local remnants back onto the
	// global list) and reports whether any device is still scheduled, in
	// which case the engine re-raises the softirq.
	Finish() bool
	// SelectQueue picks the input queue this device poll serves.
	SelectQueue(dev *netdev.Device) Queue
	// Route decides where a forwarded packet goes (see Route).
	Route(skb *pkt.SKB) Route
	// Schedule inserts a device the transition path newly scheduled
	// (napi_schedule from softirq context). head is Route.Head.
	Schedule(dev *netdev.Device, head bool)
	// Promote reorders an already-scheduled device for a head route.
	Promote(dev *netdev.Device)
	// Snapshot renders the poll list for PollObservation traces.
	Snapshot() []string
}

// Engine is the unified per-CPU receive engine. All methods must be
// called from simulation context (inside events).
type Engine struct {
	eng    *sim.Engine
	core   *cpu.Core
	costs  *netdev.Costs
	policy PollPolicy

	pending   bool // softirq raised but not yet started
	running   bool // net_rx_action in progress
	processed int  // packets processed in the current softirq

	// lastStage tracks which device's code last ran on this core, for the
	// I-cache stage-switch penalty (Costs.StageSwitch). PRISM-sync chains
	// switch stages on every packet, which is where their throughput cost
	// comes from.
	lastStage *netdev.Device

	// runSoftirqFn / pollNextFn are the raise and loop continuations,
	// bound once at construction: scheduling a method value through
	// Engine.At would otherwise allocate a fresh closure per batch.
	runSoftirqFn func()
	pollNextFn   func()

	stats Stats

	// OnPoll, when set, is invoked once per device-poll iteration.
	OnPoll func(PollObservation)

	// obs, when set, receives per-packet lifecycle spans and labeled
	// metrics for every stage this engine polls.
	obs *obs.Pipeline
	// fault, when set, injects softirq worker stalls at run start.
	fault *fault.Plane
	// shed enables the priority-aware overload policy on stage
	// transitions: a high-priority packet facing a full low queue evicts
	// the oldest low-priority resident instead of being dropped itself.
	shed bool
}

var _ netdev.Scheduler = (*Engine)(nil)

// New returns an engine running the given poll policy on a core. Each
// engine needs its own policy instance (policies hold per-CPU state).
func New(eng *sim.Engine, core *cpu.Core, costs *netdev.Costs, policy PollPolicy) *Engine {
	e := &Engine{eng: eng, core: core, costs: costs, policy: policy}
	e.runSoftirqFn = e.runSoftirq
	e.pollNextFn = e.pollNext
	return e
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetOnPoll installs the per-iteration trace hook.
func (e *Engine) SetOnPoll(fn func(PollObservation)) { e.OnPoll = fn }

// SetObs installs the observability pipeline (nil disables collection).
func (e *Engine) SetObs(p *obs.Pipeline) { e.obs = p }

// SetFault installs the fault plane (nil disables injection).
func (e *Engine) SetFault(p *fault.Plane) { e.fault = p }

// SetShed enables the priority-aware overload drop policy on stage
// transitions.
func (e *Engine) SetShed(on bool) { e.shed = on }

// Core returns the processing core this engine runs on.
func (e *Engine) Core() *cpu.Core { return e.core }

// Policy returns the engine's poll policy.
func (e *Engine) Policy() PollPolicy { return e.policy }

// NotifyArrival implements netdev.Scheduler: the hardware-IRQ path. If
// the device is already scheduled (NAPI_STATE_SCHED set), its IRQs are
// masked and the packet just sits in the queue; otherwise the top half
// runs, charges its cost, and hands the device to the policy.
func (e *Engine) NotifyArrival(dev *netdev.Device, high bool) {
	if dev.InPollList {
		return
	}
	dev.InPollList = true
	now := e.eng.Now()
	// Top half: charge the hardware interrupt on this core. If the core is
	// mid-softirq the charge extends its busy window (interrupts steal
	// cycles from the softirq); poll iterations re-sync with the ledger.
	start := e.core.Acquire(now)
	e.core.Consume(start, e.costs.IRQ)
	e.policy.Arrive(dev, high)
	e.raise()
}

// raise schedules net_rx_action if it is neither pending nor running.
func (e *Engine) raise() {
	if e.running || e.pending {
		return
	}
	e.pending = true
	e.eng.At(e.core.BusyUntil(), e.runSoftirqFn)
}

// reraise schedules another net_rx_action after the softirq yields
// (ksoftirqd handoff delay).
func (e *Engine) reraise(now sim.Time) {
	if e.running || e.pending {
		return
	}
	e.pending = true
	e.eng.At(now+e.costs.SoftirqRestart, e.runSoftirqFn)
}

// runSoftirq is net_rx_action: open the run and start the polling loop.
func (e *Engine) runSoftirq() {
	e.pending = false
	e.running = true
	e.stats.SoftirqRuns++
	e.processed = 0
	e.policy.Begin()
	if d := e.fault.SoftirqStall(e.eng.Now()); d > 0 {
		// ksoftirqd preempted: the stall occupies the core before any
		// polling happens; pollNext re-syncs with the extended busy window
		// through the ledger.
		start := e.core.Acquire(e.eng.Now())
		e.core.Consume(start, d)
	}
	e.pollNext()
}

// pollNext executes one iteration of the device polling loop (Fig. 2
// lines 11–20 / Fig. 7 lines 6–20), then schedules itself at the batch's
// completion time.
func (e *Engine) pollNext() {
	now := e.eng.Now()
	if e.processed >= e.costs.Budget {
		e.finish(now)
		return
	}
	dev := e.policy.Next()
	if dev == nil {
		e.finish(now)
		return
	}

	// Re-sync with the core ledger: interrupts may have extended the busy
	// window past this event's timestamp.
	start := e.core.BusyUntil()
	if start < now {
		start = e.core.Acquire(now)
	}
	n, total := e.pollDevice(dev, start)
	end := e.core.Consume(start, total)
	e.processed += n
	e.stats.Iterations++

	// A device with remaining packets goes back to the list where the
	// policy wants it; a drained device completes NAPI (IRQs back on).
	e.policy.Requeue(dev)
	e.observe(now, dev)
	e.eng.At(end, e.pollNextFn)
}

// finish is the net_rx_action epilogue: the policy reconciles its lists
// and, if any device is still scheduled, the softirq is re-raised.
func (e *Engine) finish(now sim.Time) {
	again := e.policy.Finish()
	e.running = false
	if again {
		e.reraise(now)
	}
}

// pollDevice is napi_poll: process up to BatchSize packets from the
// policy-selected input queue in queue order, applying stage transitions.
// It returns the packet count and the total CPU time of the batch.
func (e *Engine) pollDevice(dev *netdev.Device, start sim.Time) (int, sim.Time) {
	q := e.policy.SelectQueue(dev)
	if q.Empty() {
		return 0, 0
	}
	dev.Polls++
	t := start + e.costs.BatchOverhead
	count := 0
	for count < e.costs.BatchSize {
		skb := q.Dequeue()
		if skb == nil {
			break
		}
		// Cold instruction cache for this stage's code path; within a
		// batch the working set stays warm, so this fires once per poll —
		// except after a run-to-completion chain, whose last hop left the
		// core in another stage's code (the batching loss of §III-B1).
		if e.lastStage != dev {
			t += e.costs.StageSwitch
			e.lastStage = dev
		}
		hStart := t
		res := dev.Handler.HandlePacket(t, skb)
		t += res.Cost
		skb.Stage++
		count++
		e.stats.Packets++
		dev.Processed++
		if e.obs != nil {
			e.stage(dev).Span(skb.ID, skb.Priority, hStart, t, &skb.Wait)
		}
		t = e.applyTransition(dev, skb, res, t)
	}
	return count, t - start
}

// applyTransition routes a processed packet where the policy directs:
// enqueue to the next stage (scheduling that device), run the next stage
// inline (run-to-completion chains advance hop by hop in this loop),
// deliver to the application at the packet's completion time, or drop.
// dev is the stage that just processed the packet, for drop attribution.
// It returns the updated batch cursor (inline chains accrue the remaining
// stages' costs).
func (e *Engine) applyTransition(dev *netdev.Device, skb *pkt.SKB, res netdev.Result, t sim.Time) sim.Time {
	cur := dev
	for {
		switch res.Verdict {
		case netdev.VerdictForward:
			next := res.Next
			route := e.policy.Route(skb)
			if route.Sync {
				// Run-to-completion: call the next stage's processing
				// directly in this context (netif_receive_skb instead of
				// netif_rx), bypassing its queue entirely. Every hop
				// changes the instruction-cache working set.
				if e.lastStage != next {
					t += e.costs.StageSwitch
					e.lastStage = next
				}
				hStart := t
				res = next.Handler.HandlePacket(t, skb)
				t += res.Cost
				skb.Stage++
				e.stats.Packets++
				next.Processed++
				if e.obs != nil {
					e.stage(next).Span(skb.ID, skb.Priority, hStart, t, &skb.Wait)
				}
				cur = next
				continue
			}
			var ok bool
			if route.High {
				ok = next.HighQ.Enqueue(skb)
			} else {
				if e.shed && skb.Priority > 0 && next.LowQ.Len() >= next.LowQ.Cap() {
					// Overload shed: displace the oldest low-priority
					// resident rather than drop a prioritized packet at a
					// full queue. Fullness is checked before Enqueue so the
					// queue's reject counter never records a packet that
					// ends up admitted. The victim is accounted as a drop
					// (Shed is the informational subset), keeping packet
					// conservation the same either way.
					if victim := next.LowQ.EvictLowPrio(); victim != nil {
						e.stats.Dropped++
						e.stats.Shed++
						if e.obs != nil {
							e.obs.Drop(t, next.Name, obs.StageShed, victim.ID, victim.Priority, &victim.Wait)
						}
						victim.Free()
					}
				}
				ok = next.LowQ.Enqueue(skb)
			}
			if !ok {
				e.stats.Dropped++
				if e.obs != nil {
					e.obs.Drop(t, next.Name, next.Kind.StageName(), skb.ID, skb.Priority, &skb.Wait)
				}
				skb.Free()
				return t
			}
			if next.InPollList {
				if route.Head {
					e.policy.Promote(next)
				}
			} else {
				// napi_schedule from softirq context.
				next.InPollList = true
				e.policy.Schedule(next, route.Head)
			}
			return t
		case netdev.VerdictDeliver:
			skb.Delivered = t
			e.stats.Delivered++
			// Ownership transfers to the sink, which frees the SKB.
			e.eng.CallAt(t, runSink, res.Sink, skb)
			return t
		case netdev.VerdictDrop:
			e.stats.Dropped++
			if e.obs != nil {
				e.obs.Drop(t, cur.Name, cur.Kind.StageName(), skb.ID, skb.Priority, &skb.Wait)
			}
			skb.Free()
			return t
		case netdev.VerdictAbsorbed:
			// GRO merged the frame into an earlier SKB; nothing to route.
			if e.obs != nil {
				e.obs.Absorbed(t, cur.Name, skb.ID, skb.Priority, &skb.Wait)
			}
			skb.Free()
			return t
		default:
			panic("softirq: handler returned invalid verdict")
		}
	}
}

// stage returns dev's span handle on the engine's pipeline, binding it
// when the engine first polls the device.
func (e *Engine) stage(dev *netdev.Device) *obs.Stage {
	return e.obs.Bound(&dev.Obs, dev.Name, dev.Kind.StageName())
}

// runSink is the scheduled-delivery trampoline: a top-level function, so
// CallAt needs no per-packet closure.
func runSink(at sim.Time, a1, a2 any) {
	a1.(netdev.Sink).DeliverSKB(at, a2.(*pkt.SKB))
}

// observe reports one loop iteration to the trace hook.
func (e *Engine) observe(now sim.Time, dev *netdev.Device) {
	if e.OnPoll == nil {
		return
	}
	e.OnPoll(PollObservation{
		Time:      now,
		Iteration: e.stats.Iterations,
		Device:    dev.Name,
		PollList:  e.policy.Snapshot(),
	})
}
