package netdev

import (
	"fmt"

	"prism/internal/obs"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// The obs stage handles pre-bind one metric slot per priority level; this
// constant fails to compile unless the two level bounds agree.
const _ = uint(MaxPriorityLevels-obs.MaxPriority) + uint(obs.MaxPriority-MaxPriorityLevels)

// DriverKind identifies which poll implementation a device uses. The paper
// distinguishes these in §II-A3: physical NICs have vendor NAPI drivers,
// bridges use gro_cells, and veth falls back to the per-CPU backlog.
type DriverKind int

// Driver kinds, in pipeline order for the standard overlay.
const (
	DriverNIC      DriverKind = iota + 1 // vendor NAPI driver (mlx5-like)
	DriverGroCells                       // bridge / tunnel gro_cells NAPI
	DriverBacklog                        // generic per-CPU backlog (veth)
)

// String names the driver kind.
func (k DriverKind) String() string {
	switch k {
	case DriverNIC:
		return "nic"
	case DriverGroCells:
		return "gro_cells"
	case DriverBacklog:
		return "backlog"
	default:
		return fmt.Sprintf("driver(%d)", int(k))
	}
}

// StageName maps the driver kind to the canonical pipeline-stage label
// used by the observability subsystem (the values of internal/obs's
// PipelineStages), so every engine labels spans consistently.
func (k DriverKind) StageName() string {
	switch k {
	case DriverNIC:
		return "nic"
	case DriverGroCells:
		return "bridge"
	case DriverBacklog:
		return "veth"
	default:
		return k.String()
	}
}

// Verdict says what happens to a packet after a stage processes it.
type Verdict int

// Verdicts.
const (
	// VerdictForward hands the packet to Result.Next's input queue — the
	// stage transition (gro_cells_receive / netif_rx analogue).
	VerdictForward Verdict = iota + 1
	// VerdictDeliver copies the payload to the application: Result.Sink
	// receives the packet at its completion time.
	VerdictDeliver
	// VerdictDrop discards the packet (no destination, parse failure).
	VerdictDrop
	// VerdictAbsorbed means GRO merged this frame into a previously
	// forwarded SKB; it consumes only the merge cost and goes nowhere.
	VerdictAbsorbed
)

// Sink consumes a delivered packet at its completion time. DeliverSKB takes
// ownership of the SKB — the implementation must Free it (directly or after
// detaching its frame buffer) — which is what lets delivery scheduling stay
// allocation-free: the softirq passes a long-lived Sink plus the SKB through
// sim.CallAt instead of building a per-packet closure.
type Sink interface {
	DeliverSKB(at sim.Time, skb *pkt.SKB)
}

// Result is the outcome of processing one packet at one stage.
type Result struct {
	Verdict Verdict
	// Cost is the CPU time this stage consumed for this packet.
	Cost sim.Time
	// Next is the device receiving the packet when Verdict is
	// VerdictForward.
	Next *Device
	// Sink receives the packet at its stage-completion time when Verdict
	// is VerdictDeliver — the allocation-free delivery path. It takes SKB
	// ownership.
	Sink Sink
}

// Handler is a stage's packet processor: the protocol work a device's poll
// function performs on each packet (decap, FDB lookup, IP/UDP receive...).
// Handlers run logically inside the softirq; they see and mutate the SKB.
type Handler interface {
	HandlePacket(now sim.Time, s *pkt.SKB) Result
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now sim.Time, s *pkt.SKB) Result

// HandlePacket calls f.
func (f HandlerFunc) HandlePacket(now sim.Time, s *pkt.SKB) Result { return f(now, s) }

// Device is a NAPI-pollable network device: physical NIC, virtual bridge,
// or veth/backlog. It owns its input packet queue(s) and its stage handler.
//
// LowQ is the device's ordinary input queue — the only one vanilla NAPI
// has. HighQ is the additional high-priority queue PRISM adds (§III-A);
// vanilla never touches it. The physical NIC's HighQ is present but unused,
// reflecting the paper's stage-1 limitation (§IV-D): priority cannot be
// differentiated inside the vendor ring.
type Device struct {
	Name    string
	Kind    DriverKind
	Handler Handler

	// HighQ holds priority levels >= 1 (multi-level per §VII-3); LowQ is
	// the best-effort queue and the only one vanilla NAPI uses.
	HighQ *PrioQueue
	LowQ  *Queue

	// InPollList tracks NAPI_STATE_SCHED: whether the device is currently
	// on a poll list (set by the engines; also gates IRQ raising at the
	// NIC, since NAPI disables device IRQs while scheduled).
	InPollList bool

	// Polls counts napi_poll invocations; Processed counts packets
	// processed through this device's handler.
	Polls     uint64
	Processed uint64

	// Obs is the device's span handle on the observability pipeline of
	// the engine polling it, bound on the first poll.
	Obs *obs.Stage
}

// NewDevice returns a device with the given queue capacities.
func NewDevice(name string, kind DriverKind, handler Handler, queueCap int) *Device {
	return &Device{
		Name:    name,
		Kind:    kind,
		Handler: handler,
		HighQ:   NewPrioQueue(queueCap),
		LowQ:    NewQueue(queueCap),
	}
}

// HasPackets reports whether either input queue is non-empty.
func (d *Device) HasPackets() bool { return !d.HighQ.Empty() || !d.LowQ.Empty() }

// QueuedPackets returns the total number of queued packets.
func (d *Device) QueuedPackets() int { return d.HighQ.Len() + d.LowQ.Len() }

// String returns the device name.
func (d *Device) String() string { return d.Name }

// Scheduler is the interface a receive engine exposes to IRQ-context code
// (the NIC arrival path) and to the traffic layer: "this device has new
// packets". It is the napi_schedule / netif_rx entry point.
type Scheduler interface {
	// NotifyArrival tells the engine dev received packets outside softirq
	// context. high hints at the packet priority where the caller knows it
	// (virtual devices); the NIC always passes false per the stage-1
	// limitation.
	NotifyArrival(dev *Device, high bool)
}
