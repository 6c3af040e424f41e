// Package nic models the physical network interface card and its stage-1
// driver poll: DMA into a descriptor ring, interrupt moderation
// (rx-usecs / rx-frames coalescing), GRO, priority classification at SKB
// allocation, and the first processing stage — VXLAN identification and
// decapsulation for overlay traffic, or direct protocol receive for host
// traffic.
//
// Per the paper's stage-1 limitation (§IV-D), the ring itself is a single
// FIFO: priority is determined here (the mlx5e_napi_poll analogue) but can
// only influence the packet's treatment from the first stage *transition*
// onward.
package nic

import (
	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/obs"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/socket"
)

// ringSize bounds the RX descriptor ring; it matches a common mlx5 RX
// ring configuration.
const ringSize = 1024

// GROMaxSegs caps how many consecutive same-flow TCP segments merge into
// one SKB (64 KB / MTU rounds to ~43; drivers often cap lower).
const GROMaxSegs = 16

// groFlushGap bounds the processing-time gap between two frames that may
// still merge: consecutive packets inside one poll session are a few
// hundred nanoseconds apart, while a new NAPI session (after
// napi_complete, which flushes GRO) arrives several microseconds later.
const groFlushGap = 2 * sim.Microsecond

// Config parameterizes the NIC.
type Config struct {
	Name string
	// HostIP is the NIC's own IPv4 address (outer/underlay address).
	HostIP pkt.IPv4
	// RxUsecs and RxFrames configure interrupt moderation: an interrupt
	// fires when RxFrames packets are pending or RxUsecs has elapsed since
	// the first pending packet, whichever is sooner. Zero values disable
	// moderation (interrupt per packet).
	RxUsecs  sim.Time
	RxFrames int
	// AdaptiveIdle, when positive, models adaptive moderation (mlx5 CQE
	// moderation default): if the NIC has been interrupt-quiet for this
	// long, the next packet interrupts immediately — low latency at low
	// rate, coalescing under load.
	AdaptiveIdle sim.Time
	// GRO enables receive offload merging for TCP flows.
	GRO bool
	// PriorityRings models the paper's §VII-1 future work: a driver/NIC
	// that classifies flows in hardware (flow steering) and maintains a
	// separate high-priority RX ring, removing the stage-1 limitation.
	// Only PRISM engines exploit it; under vanilla all frames still go to
	// the single FIFO ring.
	PriorityRings bool
	// Shed enables the priority-aware overload drop policy: when the
	// single FIFO ring is full and the arriving frame classifies as
	// high-priority, the oldest queued low-priority packet is evicted to
	// make room — shed-low-first, mirroring the dual-queue design at the
	// admission point.
	Shed bool
	// FirstID is the base value for this NIC's SKB IDs. Topologies with
	// several RX queues give each queue's NIC a distinct base so packet
	// identities stay unique host-wide — span streams and trace sampling
	// identify packets by SKB ID.
	FirstID uint64
}

// NIC is the physical interface: a netdev.Device plus the DMA/IRQ front
// end that feeds it.
type NIC struct {
	Dev *netdev.Device

	eng   *sim.Engine
	sched netdev.Scheduler
	costs *netdev.Costs
	cfg   Config

	db *prio.DB
	// bridge receives decapsulated overlay frames (stage 2); nil for a
	// host-only NIC.
	bridge *netdev.Device
	// hostSockets demuxes non-encapsulated traffic addressed to HostIP.
	hostSockets *socket.Table

	// Interrupt moderation state.
	pendingIRQ   int
	irqTimer     *sim.Event
	firstPending sim.Time
	lastIRQ      sim.Time
	fireIRQFn    func() // bound once; scheduling a method value allocates

	// GRO state: current merge run. A run ends on a flow change, the seg
	// cap, or a time gap (batch boundary). groGen snapshots the head's
	// pool generation: the head is owned by downstream stages while the
	// NIC holds this reference, so a generation mismatch means the SKB
	// completed and was recycled — merging then would corrupt whatever
	// packet reuses it.
	groFlow pkt.FlowKey
	groHead *pkt.SKB
	groGen  uint32
	groRun  int
	groAt   sim.Time

	// skbs and frames recycle the per-packet allocations of the receive
	// path. DMA copies the wire bytes into a pooled frame — the model's
	// descriptor-ring buffer — so callers may reuse their frame slices.
	skbs   pkt.SKBPool
	frames pkt.FramePool

	nextID uint64

	// obs, when set, records frame DMA and interrupt instants through the
	// dmaObs and irqObs handles bound by SetObs.
	obs            *obs.Pipeline
	dmaObs, irqObs *obs.Stage
	// fault, when set, injects DMA overruns and interrupt loss; nil-safe
	// hooks make the unfaulted path identical to a plane-less build.
	fault *fault.Plane

	// Counters.
	DMAd      uint64
	IRQs      uint64
	Merged    uint64
	Overruns  uint64 // DMA attempts rejected by an injected ring overrun
	LostIRQs  uint64 // raised interrupts lost to injection
	ShedDrops uint64 // low-priority packets evicted by the shed policy
	// WatchdogRearms counts IRQs re-raised by the fault plane's watchdog
	// after it found the device stuck.
	WatchdogRearms uint64
}

// New builds the NIC and its stage-1 device.
func New(eng *sim.Engine, sched netdev.Scheduler, costs *netdev.Costs, db *prio.DB,
	hostSockets *socket.Table, cfg Config) *NIC {
	n := &NIC{
		eng:         eng,
		sched:       sched,
		costs:       costs,
		cfg:         cfg,
		db:          db,
		hostSockets: hostSockets,
		lastIRQ:     -sim.Second, // the first packet ever interrupts at once
		nextID:      cfg.FirstID,
	}
	n.Dev = netdev.NewDevice(cfg.Name, netdev.DriverNIC, netdev.HandlerFunc(n.handle), ringSize)
	n.fireIRQFn = n.fireIRQ
	return n
}

// AttachBridge wires the overlay path: decapsulated frames are forwarded
// to the bridge device.
func (n *NIC) AttachBridge(br *netdev.Device) { n.bridge = br }

// SetObs installs the observability pipeline (nil disables collection).
func (n *NIC) SetObs(p *obs.Pipeline) {
	n.obs, n.dmaObs, n.irqObs = p, nil, nil
	if p != nil {
		n.dmaObs = p.Bind(n.Dev.Name, obs.StageDMA)
		n.irqObs = p.Bind(n.Dev.Name, obs.StageIRQ)
	}
}

// SetFault installs the fault plane (nil disables injection).
func (n *NIC) SetFault(p *fault.Plane) { n.fault = p }

// PoolOutstanding reports how many SKBs and pooled frame buffers this
// NIC's pools have checked out; both must be zero after a drained run.
func (n *NIC) PoolOutstanding() (skbs, frames int) {
	return n.skbs.Outstanding(), n.frames.Outstanding()
}

// DMA places a received frame into the RX ring at time now (the link layer
// calls this) and drives interrupt moderation. The bytes are copied into a
// pooled ring buffer, so the caller keeps ownership of frame and may reuse
// its backing array immediately.
func (n *NIC) DMA(now sim.Time, frame []byte) {
	if n.fault.RingOverrun(now, n.cfg.Name) {
		// The DMA engine lost the frame before posting a descriptor: no
		// SKB exists; the plane accounts the drop.
		n.Overruns++
		return
	}
	buf := n.frames.Get(len(frame))
	copy(buf.B, frame)
	skb := n.skbs.Get()
	skb.SetFrame(buf)
	skb.Arrived, skb.ID, skb.GROSegs = now, n.nextID, 1
	n.nextID++
	highRing := false
	if n.cfg.PriorityRings {
		// Hardware flow steering: classify before ring placement. The
		// lookup itself costs no host CPU — that is the whole point of
		// pushing it into the NIC.
		highRing = n.classify(frame, skb)
	}
	enqueued := false
	if highRing {
		enqueued = n.Dev.HighQ.Enqueue(skb)
	} else {
		if n.cfg.Shed && n.Dev.LowQ.Len() >= n.Dev.LowQ.Cap() {
			// Overload: before letting the full ring reject this frame,
			// check whether it deserves a slot more than something queued.
			// Without priority rings nothing in the ring has been
			// classified yet (the stage-1 limitation), so the policy
			// classifies only the arriving frame and treats every
			// unclassified resident as sheddable.
			if !n.cfg.PriorityRings {
				n.classify(frame, skb)
			}
			if skb.Priority > 0 {
				if victim := n.Dev.LowQ.EvictLowPrio(); victim != nil {
					n.ShedDrops++
					if n.obs != nil {
						n.obs.Drop(now, n.Dev.Name, obs.StageShed, victim.ID, victim.Priority, &victim.Wait)
					}
					victim.Free()
				}
			}
		}
		enqueued = n.Dev.LowQ.Enqueue(skb)
	}
	if !enqueued {
		// Ring overrun; drop counted by the queue.
		if n.obs != nil {
			n.obs.Drop(now, n.Dev.Name, obs.StageDMA, skb.ID, skb.Priority, &skb.Wait)
		}
		skb.Free()
		return
	}
	n.DMAd++
	if n.obs != nil {
		n.dmaObs.DMA(now, skb.ID, skb.Priority, &skb.Wait)
	}
	if highRing && !n.Dev.InPollList {
		// High-ring packets interrupt immediately, bypassing moderation.
		n.fireHighIRQ()
		return
	}
	if n.Dev.InPollList {
		// NAPI is already scheduled/polling: IRQs for this queue are
		// masked; the packet will be picked up by the poll loop.
		return
	}
	if n.cfg.RxUsecs <= 0 && n.cfg.RxFrames <= 1 {
		n.fireIRQ()
		return
	}
	if n.cfg.AdaptiveIdle > 0 && now-n.lastIRQ >= n.cfg.AdaptiveIdle {
		n.fireIRQ()
		return
	}
	n.pendingIRQ++
	if n.pendingIRQ == 1 {
		n.firstPending = now
		n.irqTimer = n.eng.At(now+n.cfg.RxUsecs, n.fireIRQFn)
	}
	if n.pendingIRQ >= n.cfg.RxFrames {
		n.fireIRQ()
	}
}

// classify runs priority classification against the wire frame and stamps
// the SKB, reporting whether the packet classified high. Both hardware
// flow steering (PriorityRings) and the shed policy's admission check use
// it; handle()'s software classification is idempotent with it.
func (n *NIC) classify(frame []byte, skb *pkt.SKB) bool {
	_, flow, err := pkt.InnerFlow(frame)
	if err != nil {
		return false
	}
	if lvl := n.db.ClassifyLevel(flow); lvl > 0 {
		skb.Priority = lvl
		skb.HighPriority = true
		return true
	}
	return false
}

// fireHighIRQ raises an interrupt for the high-priority ring, telling the
// engine the device has urgent packets (head insertion in PRISM).
func (n *NIC) fireHighIRQ() {
	if n.irqTimer != nil {
		n.eng.Cancel(n.irqTimer)
		n.irqTimer = nil
	}
	n.pendingIRQ = 0
	if n.fault.DropIRQ(n.eng.Now(), n.cfg.Name) {
		n.LostIRQs++
		return
	}
	n.raise(n.eng.Now(), true)
}

// fireIRQ raises the hardware interrupt (once) and resets moderation.
func (n *NIC) fireIRQ() {
	if n.irqTimer != nil {
		n.eng.Cancel(n.irqTimer)
		n.irqTimer = nil
	}
	n.pendingIRQ = 0
	if n.Dev.InPollList {
		return
	}
	if n.fault.DropIRQ(n.eng.Now(), n.cfg.Name) {
		n.LostIRQs++
		return
	}
	n.raise(n.eng.Now(), false)
}

// raise delivers the interrupt to the scheduler unconditionally: past
// moderation, past injection. The moderated paths funnel here, and the
// watchdog rearm uses it directly (a rearm that could itself be lost
// would leave rescue to luck).
func (n *NIC) raise(now sim.Time, high bool) {
	n.IRQs++
	n.lastIRQ = now
	if n.obs != nil {
		n.irqObs.IRQ(now)
	}
	n.sched.NotifyArrival(n.Dev, high)
}

// DeviceName implements fault.Device.
func (n *NIC) DeviceName() string { return n.cfg.Name }

// Stuck implements fault.Device: packets are queued but no poll is
// scheduled and no moderation timer is pending — the state a lost
// interrupt strands the device in, with nothing left to wake it except
// another arrival.
func (n *NIC) Stuck() bool {
	return n.Dev.HasPackets() && !n.Dev.InPollList && n.irqTimer == nil
}

// RearmIRQ implements fault.Device: the watchdog's dev_watchdog-style
// recovery re-raises the interrupt for a stuck device.
func (n *NIC) RearmIRQ(now sim.Time) {
	if !n.Stuck() {
		return
	}
	n.WatchdogRearms++
	n.raise(now, !n.Dev.HighQ.Empty())
}

// SpuriousIRQ implements fault.Device: an interrupt with no (new) packets
// behind it. Masked while the device is in the poll list, like the real
// IRQ line; moderation state is deliberately left alone.
func (n *NIC) SpuriousIRQ(now sim.Time) {
	if n.Dev.InPollList {
		return
	}
	n.raise(now, false)
}

// handle is the stage-1 poll processing for one SKB: GRO, classification,
// then decap-and-forward (overlay) or protocol receive (host).
func (n *NIC) handle(now sim.Time, skb *pkt.SKB) netdev.Result {
	// Identify the flow this packet belongs to. For VXLAN traffic the
	// priority database is matched against the *inner* flow — that is
	// what identifies the container application (§IV-A). The fabric is
	// single-VNI; multi-VNI demux lives in the bridge FDB.
	inner, flow, err := pkt.InnerFlow(skb.Data)
	if err != nil {
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: n.costs.NICPacket}
	}
	// Decapsulation strips at least the 50 outer header bytes.
	encapsulated := len(inner) < len(skb.Data)
	skb.Flow = flow
	skb.Encapsulated = encapsulated
	// Priority classification happens exactly once, at SKB allocation in
	// the physical device's poll context. (With PriorityRings the NIC has
	// already classified in hardware; the software check is idempotent.)
	skb.Priority = n.db.ClassifyLevel(flow)
	skb.HighPriority = skb.Priority > 0

	// GRO: merge consecutive same-flow TCP segments into the run head. A
	// gap of more than ~one batch overhead means a new poll batch started,
	// which flushes the GRO table (napi_complete does this in Linux).
	if n.cfg.GRO && flow.Proto == pkt.ProtoTCP {
		// The generation check detects a head that completed downstream and
		// was recycled since the last merge; growing it then would mutate
		// whichever packet reuses the SKB (or a delivered one) — the
		// use-after-free the kernel's flush-on-complete prevents.
		fresh := n.groHead != nil && n.groHead.Gen() == n.groGen &&
			n.groFlow == flow && n.groRun < GROMaxSegs &&
			now-n.groAt <= groFlushGap
		n.groAt = now
		if fresh {
			n.groHead.GROSegs++
			n.groRun++
			n.Merged++
			return netdev.Result{Verdict: netdev.VerdictAbsorbed, Cost: n.costs.GROPacket}
		}
		n.groFlow = flow
		n.groHead = skb
		n.groGen = skb.Gen()
		n.groRun = 1
	} else {
		n.groHead = nil
	}

	if encapsulated {
		if n.bridge == nil {
			return netdev.Result{Verdict: netdev.VerdictDrop, Cost: n.costs.NICPacket}
		}
		// Strip the outer headers: the inner frame proceeds to stage 2,
		// stamped with the parse the later stages trust.
		skb.Data = inner
		skb.Encapsulated = false
		skb.Parsed = true
		return netdev.Result{Verdict: netdev.VerdictForward, Cost: n.costs.NICPacket, Next: n.bridge}
	}

	// Host network: single-stage receive straight to the socket.
	skb.Parsed = true
	return socket.DeliverToTable(n.hostSockets, n.costs.HostPacket, skb)
}
