// Package overlay composes the substrates into the paper's testbed: a
// server machine whose receive path is fully simulated (NIC → VXLAN decap
// → bridge → veth → socket → app thread), reachable over a point-to-point
// 100 GbE link, hosting Docker-style containers on a VXLAN overlay plus a
// host-network socket table.
//
// The client machine is intentionally *not* packet-simulated: the paper's
// experiments never load the client, so its stack contributes only a
// constant to measured round-trip latency. Traffic generators inject wire
// frames toward the server and receive the server's replies via a
// callback; see internal/traffic.
package overlay

import (
	"fmt"

	"prism/internal/bridge"
	"prism/internal/core"
	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/napi"
	"prism/internal/netdev"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sched"
	"prism/internal/sim"
	"prism/internal/socket"
	"prism/internal/softirq"
	"prism/internal/veth"
)

// VNI is the overlay network identifier used by the testbed.
const VNI = 256

// Well-known addresses of the two machines.
var (
	ServerIP   = pkt.Addr(192, 168, 1, 2)
	ServerMAC  = pkt.MAC{0x52, 0x54, 0x00, 0x00, 0x00, 0x02}
	ClientIP   = pkt.Addr(192, 168, 1, 1)
	ClientMAC  = pkt.MAC{0x52, 0x54, 0x00, 0x00, 0x00, 0x01}
	serverCIDR = pkt.IPv4{172, 17, 0, 0}
)

// RxEngine is the receive-engine surface the topology needs; the unified
// softirq runtime (internal/softirq) provides it for every poll policy.
type RxEngine interface {
	netdev.Scheduler
	Stats() softirq.Stats
	Core() *cpu.Core
	SetOnPoll(func(softirq.PollObservation))
	SetObs(*obs.Pipeline)
	SetFault(*fault.Plane)
	SetShed(bool)
}

// Config parameterizes the server host.
type Config struct {
	// RxQueues is the number of NIC RX queues, each with its own NAPI
	// engine on its own processing core — RSS with the queues' IRQs
	// spread over dedicated cores. Flows are steered by hashing the outer
	// headers (a VXLAN inner flow always lands on one queue, via the
	// outer source-port entropy). 0 or 1 is the paper's single-core
	// configuration.
	RxQueues int

	// Mode selects the receive engine: vanilla, PRISM-batch or PRISM-sync.
	Mode prio.Mode
	// Policy optionally overrides the softirq poll policy by registry name
	// ("vanilla", "prism", "headonly", "dualq", …); empty derives the
	// policy from Mode. The Mode still drives flow classification and the
	// PRISM batch/sync switch for policies that consult it.
	Policy string
	// Costs is the CPU cost model; nil uses netdev.DefaultCosts.
	Costs *netdev.Costs
	// CStates configures the processing core's power management; nil means
	// always-on. The paper's testbed runs with C1 (cpu.C1).
	CStates []cpu.CState
	// NIC carries interrupt moderation and GRO settings. Name and HostIP
	// are filled in by NewHost.
	NIC nic.Config
	// AppCStates configures application cores (usually same as CStates).
	AppCStates []cpu.CState

	// Obs, when set, instruments the whole receive path of this host —
	// NIC DMA/IRQ instants, per-stage spans in both engines, socket
	// deliveries — into one observability pipeline. One pipeline per host
	// keeps collection shard-local in parallel topologies.
	Obs *obs.Pipeline

	// Fault, when set, threads the fault-injection plane through every
	// layer of this host: wire faults before DMA, ring/IRQ faults in the
	// NIC, softirq stalls in the RX engines, consumer stalls on the app
	// threads. Nil (the default) leaves the datapath bit-identical to a
	// plane-less build.
	Fault *fault.Plane
	// Shed enables the priority-aware overload drop policy in the NIC ring
	// and on softirq stage transitions.
	Shed bool
}

// Container is one Docker-style container on the overlay network.
type Container struct {
	Name string
	MAC  pkt.MAC
	IP   pkt.IPv4

	Sockets *socket.Table
	Thread  *sched.Thread
	Core    *cpu.Core

	host *Host
}

// Host is the simulated server machine.
type Host struct {
	Eng   *sim.Engine
	Costs *netdev.Costs
	DB    *prio.DB
	Mode  prio.Mode

	// ProcCore, Rx, NIC, Bridge and Backlog are RX queue 0 — the paper's
	// single-core setup uses these directly. With Config.RxQueues > 1 the
	// full per-queue sets are in the plural slices below (index = queue).
	ProcCore *cpu.Core
	Rx       RxEngine
	NIC      *nic.NIC
	Bridge   *bridge.Bridge
	// Backlog is the per-CPU generic receive context shared by every veth
	// on the processing core (softnet_data.input_pkt_queue) — stage 3 of
	// the pipeline. It carries the name "veth0" because that is how the
	// paper's traces label the stage.
	Backlog *veth.Backlog

	// Per-RX-queue sets: each queue has its own NAPI engine on its own
	// core, plus its own per-CPU gro_cells and backlog contexts, exactly
	// as RSS with per-core IRQ affinity gives the kernel.
	ProcCores   []*cpu.Core
	Rxs         []RxEngine
	NICs        []*nic.NIC
	BridgeCells []*bridge.Bridge
	Backlogs    []*veth.Backlog

	HostSockets *socket.Table
	HostThread  *sched.Thread

	Containers []*Container

	// Tap, when set, observes every wire frame (rx: client→server before
	// DMA; tx: server→client at transmission). Used by the pcap exporter.
	// The frame is valid only during the call; a tap that keeps it must
	// copy it.
	Tap func(now sim.Time, frame []byte, tx bool)

	// WireTx, when set, takes over outbound wire delivery: instead of
	// scheduling the remote receive on the host's own engine, transmit
	// hands (departure time, computed arrival time, frame) to the hook.
	// Parallel topologies (internal/par) use it to carry frames over a
	// cross-shard link whose lookahead is the wire latency, so the client
	// machine can live on a different shard than the server. The frame is
	// a pooled egress buffer, valid only during the call: a hook that
	// keeps it past its return (a link carrying it) must copy it.
	WireTx func(now, arrive sim.Time, frame []byte)

	// Fault is the host's fault plane (nil when not injecting).
	Fault *fault.Plane

	cfg      Config
	remoteRx func(now sim.Time, frame []byte)
	nextCore int
	// TxFrames counts frames the host sent back to the wire.
	TxFrames uint64
	// RxWire counts frames that arrived from the wire (before any fault
	// treatment); the invariant checker's conservation ledger starts here.
	RxWire uint64

	// delayPool holds copies of jitter-delayed wire frames between their
	// original arrival and their deferred DMA (the injector's buffer is
	// reused as soon as InjectFromWire returns). delayedInFlight counts
	// copies currently parked.
	delayPool       pkt.FramePool
	delayedInFlight int

	// txPool holds encoded egress frames from the send call until the
	// wire hand-off (WireTx or the remote receiver) returns.
	txPool pkt.FramePool
}

// NewHost builds the server. The priority database starts empty and in the
// configured mode; experiments add rules at runtime.
func NewHost(eng *sim.Engine, cfg Config) *Host {
	if cfg.Costs == nil {
		cfg.Costs = netdev.DefaultCosts()
	}
	if cfg.Mode == 0 {
		cfg.Mode = prio.ModeVanilla
	}
	h := &Host{
		Eng:   eng,
		Costs: cfg.Costs,
		DB:    prio.NewDB(),
		Mode:  cfg.Mode,
	}
	h.DB.SetMode(cfg.Mode)
	if cfg.RxQueues < 1 {
		cfg.RxQueues = 1
	}
	h.cfg = cfg

	h.Fault = cfg.Fault

	h.HostSockets = socket.NewTable("host")
	h.HostSockets.Obs = cfg.Obs
	h.HostThread = sched.NewThread("host-app", eng, cpu.NewCore(h.allocCore(), cfg.AppCStates), cfg.Costs.AppWakeup)
	cfg.Fault.WatchConsumer(h.HostThread)

	// Resolve the poll policy name once; every RX queue gets its own
	// instance (policies hold per-CPU state).
	polName := cfg.Policy
	if polName == "" {
		if cfg.Mode == prio.ModeVanilla {
			polName = napi.PolicyName
		} else {
			polName = core.PolicyName
		}
	}
	for q := 0; q < cfg.RxQueues; q++ {
		coreQ := cpu.NewCore(h.allocCore(), cfg.CStates)
		pol, err := softirq.NewPolicy(polName, h.DB)
		if err != nil {
			panic("overlay: " + err.Error())
		}
		rx := softirq.New(eng, coreQ, cfg.Costs, pol)
		rx.SetObs(cfg.Obs)
		rx.SetFault(cfg.Fault)
		rx.SetShed(cfg.Shed)

		nicCfg := cfg.NIC
		nicCfg.Name = fmt.Sprintf("eth0-rxq%d", q)
		if cfg.RxQueues == 1 {
			nicCfg.Name = "eth0"
		}
		nicCfg.HostIP = ServerIP
		// Each queue's SKB IDs live in a distinct range so packet
		// identities are unique host-wide (obs span streams identify
		// packets by ID).
		nicCfg.FirstID = uint64(q) << 48
		if polName == napi.PolicyName {
			// Vanilla NAPI has a single input queue per device and cannot
			// use a priority ring even if the hardware offers one.
			nicCfg.PriorityRings = false
		}
		nicCfg.Shed = cfg.Shed
		n := nic.New(eng, rx, cfg.Costs, h.DB, h.HostSockets, nicCfg)
		n.SetObs(cfg.Obs)
		n.SetFault(cfg.Fault)
		cfg.Fault.Watch(n)

		brName, veName := "br0", "veth0"
		if cfg.RxQueues > 1 {
			brName = fmt.Sprintf("br0-cell%d", q)
			veName = fmt.Sprintf("veth-cpu%d", q)
		}
		br := bridge.New(brName, cfg.Costs)
		n.AttachBridge(br.Dev)
		bl := veth.NewBacklog(veName, cfg.Costs)
		br.AddPort(bl.Dev)

		h.ProcCores = append(h.ProcCores, coreQ)
		h.Rxs = append(h.Rxs, rx)
		h.NICs = append(h.NICs, n)
		h.BridgeCells = append(h.BridgeCells, br)
		h.Backlogs = append(h.Backlogs, bl)
	}
	h.ProcCore = h.ProcCores[0]
	h.Rx = h.Rxs[0]
	h.NIC = h.NICs[0]
	h.Bridge = h.BridgeCells[0]
	h.Backlog = h.Backlogs[0]
	return h
}

func (h *Host) allocCore() int {
	id := h.nextCore
	h.nextCore++
	return id
}

// AddContainer creates a container with a deterministic MAC/IP derived
// from its index, its own application core, and wires its veth into the
// bridge (with a static FDB entry, as Docker's overlay driver installs).
func (h *Host) AddContainer(name string) *Container {
	idx := len(h.Containers) + 2 // .0 is the network, .1 the gateway
	if idx > 250 {
		panic("overlay: too many containers")
	}
	c := &Container{
		Name: name,
		MAC:  pkt.MAC{0x02, 0x42, serverCIDR[0], serverCIDR[1], serverCIDR[2], byte(idx)},
		IP:   pkt.Addr(serverCIDR[0], serverCIDR[1], serverCIDR[2], byte(idx)),
		host: h,
	}
	c.Sockets = socket.NewTable(name)
	c.Sockets.Obs = h.cfg.Obs
	c.Core = cpu.NewCore(h.allocCore(), h.cfg.AppCStates)
	c.Thread = sched.NewThread(name+"-app", h.Eng, c.Core, h.Costs.AppWakeup)
	h.cfg.Fault.WatchConsumer(c.Thread)
	for q := range h.Backlogs {
		h.Backlogs[q].Register(c.MAC, c.IP, c.Sockets)
		h.BridgeCells[q].LearnStatic(c.MAC, h.Backlogs[q].Dev)
	}
	h.Containers = append(h.Containers, c)
	return c
}

// AttachRemote registers the callback receiving frames the server
// transmits toward the client machine. The frame is valid only during the
// call; a receiver that keeps it must copy it.
func (h *Host) AttachRemote(rx func(now sim.Time, frame []byte)) { h.remoteRx = rx }

// InjectFromWire delivers a frame from the link into the NIC at time now
// (the frame has already incurred the sender-side and wire delays). With
// multiple RX queues the frame is RSS-steered by its outer flow hash.
func (h *Host) InjectFromWire(now sim.Time, frame []byte) {
	if h.Tap != nil {
		h.Tap(now, frame, false)
	}
	h.RxWire++
	if h.Fault != nil {
		out, drop, delay := h.Fault.WireRx(now, frame)
		if drop {
			return
		}
		if delay > 0 {
			// Generators reuse their frame buffer the moment this call
			// returns; a jitter-delayed frame must survive until its
			// deferred DMA, so park a copy in the host's delay pool.
			buf := h.delayPool.Get(len(out))
			copy(buf.B, out)
			h.delayedInFlight++
			h.Eng.CallAt(now+delay, runDelayedInject, h, buf)
			return
		}
		frame = out
	}
	h.NICs[h.QueueFor(frame)].DMA(now, frame)
}

// runDelayedInject is the deferred-DMA trampoline for jitter-delayed
// frames; a top-level function so CallAt needs no per-frame closure.
func runDelayedInject(at sim.Time, a1, a2 any) {
	h := a1.(*Host)
	buf := a2.(*pkt.Frame)
	h.delayedInFlight--
	h.NICs[h.QueueFor(buf.B)].DMA(at, buf.B)
	buf.Release()
}

// DelayedInFlight reports how many jitter-delayed frames are parked
// between arrival and their deferred DMA.
func (h *Host) DelayedInFlight() int { return h.delayedInFlight }

// DelayPoolOutstanding reports the delay pool's checked-out buffer count;
// it must equal DelayedInFlight at all times and be zero after a drain.
func (h *Host) DelayPoolOutstanding() int { return h.delayPool.Outstanding() }

// QueueFor is the NIC's RSS steering function: it hashes a frame's outer
// 5-tuple onto one of the host's RX queues. Experiments use it to
// construct colliding or isolated flow placements deliberately.
func (h *Host) QueueFor(frame []byte) int {
	queues := len(h.NICs)
	if queues <= 1 {
		return 0
	}
	flow, err := pkt.ParseFlow(frame)
	if err != nil {
		return 0
	}
	hash := uint32(0x811c9dc5)
	mix := func(b byte) { hash ^= uint32(b); hash *= 16777619 }
	for _, b := range flow.SrcIP {
		mix(b)
	}
	for _, b := range flow.DstIP {
		mix(b)
	}
	mix(byte(flow.SrcPort >> 8))
	mix(byte(flow.SrcPort))
	mix(byte(flow.DstPort >> 8))
	mix(byte(flow.DstPort))
	mix(flow.Proto)
	return int(hash % uint32(queues))
}

// transmit sends a pooled frame toward the client machine, modelling wire
// latency and serialization. Tap, WireTx and the remote receiver borrow
// the bytes only for their call, so the buffer goes back to the tx pool
// as soon as the last of them returns.
func (h *Host) transmit(now sim.Time, buf *pkt.Frame) {
	frame := buf.B
	h.TxFrames++
	if h.Tap != nil {
		h.Tap(now, frame, true)
	}
	at := now + h.Costs.WireLatency + h.Costs.Serialization(len(frame))
	switch {
	case h.WireTx != nil:
		h.WireTx(now, at, frame)
	case h.remoteRx != nil:
		h.Eng.CallAt(at, deliverRemote, h, buf)
		return
	}
	buf.Release()
}

// txDone runs when the application thread has paid a send's egress cost:
// the frame leaves the host. A top-level function, so Thread.Submit
// schedules it without a closure.
func txDone(done sim.Time, a1, a2 any) { a1.(*Host).transmit(done, a2.(*pkt.Frame)) }

// deliverRemote hands a transmitted frame to the client machine at its
// wire arrival and releases the buffer once the receiver returns.
func deliverRemote(at sim.Time, a1, a2 any) {
	h, buf := a1.(*Host), a2.(*pkt.Frame)
	h.remoteRx(at, buf.B)
	buf.Release()
}

// Bind binds a UDP or TCP server app inside the container.
func (c *Container) Bind(proto uint8, port uint16, app socket.App, recvCap int) (*socket.Socket, error) {
	return c.Sockets.Bind(proto, port, c.Thread, app, recvCap)
}

// RemoteEndpoint identifies a peer container on the client machine.
type RemoteEndpoint struct {
	MAC  pkt.MAC
	IP   pkt.IPv4
	Port uint16
}

// ClientContainer returns the deterministic addresses of container idx on
// the *client* machine (used as reply destinations and generator sources).
func ClientContainer(idx int, port uint16) RemoteEndpoint {
	return RemoteEndpoint{
		MAC:  pkt.MAC{0x02, 0x42, serverCIDR[0], serverCIDR[1], 0x64, byte(idx + 2)},
		IP:   pkt.Addr(serverCIDR[0], serverCIDR[1], 100, byte(idx+2)),
		Port: port,
	}
}

// SendUDP transmits a UDP reply from the container to a client-side
// container over the overlay: the egress stack cost (veth→bridge→VXLAN
// encap→NIC TX) is charged to the application thread, as sendto(2) work
// happens in syscall context — the paper leaves the egress path unchanged.
func (c *Container) SendUDP(now sim.Time, dst RemoteEndpoint, srcPort uint16, payload []byte) {
	h := c.host
	// Encode at call time: payload is only guaranteed valid while the
	// caller (usually an OnMessage callback) runs — it may alias a pooled
	// frame that is recycled as soon as the callback returns.
	buf := h.txPool.Get(pkt.VXLANOverhead + pkt.UDPFrameOverhead + len(payload))
	buf.B = pkt.EncapUDPInto(buf.B, c.toClient(dst, srcPort), pkt.UDPFrameSpec{
		SrcMAC: c.MAC, DstMAC: dst.MAC, SrcIP: c.IP, DstIP: dst.IP,
		SrcPort: srcPort, DstPort: dst.Port, Payload: payload,
	})
	c.Thread.Submit(now, h.Costs.AppTx, txDone, h, buf)
}

// SendTCP transmits a TCP segment (reply data) from the container,
// mirroring SendUDP.
func (c *Container) SendTCP(now sim.Time, dst RemoteEndpoint, srcPort uint16, seq uint32, payload []byte) {
	h := c.host
	// Encoded at call time; see SendUDP.
	buf := h.txPool.Get(pkt.VXLANOverhead + pkt.TCPFrameOverhead + len(payload))
	buf.B = pkt.EncapTCPInto(buf.B, c.toClient(dst, srcPort), pkt.TCPFrameSpec{
		SrcMAC: c.MAC, DstMAC: dst.MAC, SrcIP: c.IP, DstIP: dst.IP,
		SrcPort: srcPort, DstPort: dst.Port, Seq: seq,
		Flags: pkt.TCPAck | pkt.TCPPsh, Payload: payload,
	})
	c.Thread.Submit(now, h.Costs.AppTx, txDone, h, buf)
}

// toClient is the outer VXLAN header of the container's replies to dst.
func (c *Container) toClient(dst RemoteEndpoint, srcPort uint16) pkt.VXLANSpec {
	return pkt.VXLANSpec{
		OuterSrcMAC: ServerMAC, OuterDstMAC: ClientMAC,
		OuterSrcIP: ServerIP, OuterDstIP: ClientIP,
		SrcPort: entropyPort(c.IP, dst.IP, srcPort, dst.Port), VNI: VNI,
	}
}

// BindHost binds a server app on the host network (Fig. 10 experiments).
func (h *Host) BindHost(proto uint8, port uint16, app socket.App, recvCap int) (*socket.Socket, error) {
	return h.HostSockets.Bind(proto, port, h.HostThread, app, recvCap)
}

// SendHostUDP transmits a plain (non-encapsulated) UDP reply from a host
// socket toward the client machine.
func (h *Host) SendHostUDP(now sim.Time, dstPort, srcPort uint16, payload []byte) {
	// Encoded at call time; see Container.SendUDP.
	buf := h.txPool.Get(pkt.UDPFrameOverhead + len(payload))
	buf.B = pkt.AppendUDPFrame(buf.B, pkt.UDPFrameSpec{
		SrcMAC: ServerMAC, DstMAC: ClientMAC, SrcIP: ServerIP, DstIP: ClientIP,
		SrcPort: srcPort, DstPort: dstPort, Payload: payload,
	})
	h.HostThread.Submit(now, h.Costs.AppTx, txDone, h, buf)
}

// entropyPort mimics the VXLAN source-port entropy hash (RFC 7348 §5).
func entropyPort(a, b pkt.IPv4, p1, p2 uint16) uint16 {
	h := uint32(0x9e37)
	for _, x := range []byte{a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]} {
		h = h*31 + uint32(x)
	}
	h = h*31 + uint32(p1)
	h = h*31 + uint32(p2)
	return uint16(49152 + h%16384)
}

// EncapToServer builds a client→server overlay frame: inner UDP from a
// client container to a server container, VXLAN-wrapped for the underlay.
// Traffic generators use it.
func EncapToServer(src RemoteEndpoint, dst *Container, dstPort uint16, payload []byte) []byte {
	return EncapToServerInto(nil, src, dst, dstPort, payload)
}

// EncapToServerInto is EncapToServer writing into buf's backing array when
// it has the capacity, allocating only on overflow.
func EncapToServerInto(buf []byte, src RemoteEndpoint, dst *Container, dstPort uint16, payload []byte) []byte {
	return pkt.EncapUDPInto(buf, toServer(src, dst, dstPort), pkt.UDPFrameSpec{
		SrcMAC: src.MAC, DstMAC: dst.MAC, SrcIP: src.IP, DstIP: dst.IP,
		SrcPort: src.Port, DstPort: dstPort, Payload: payload,
	})
}

// EncapTCPToServer builds a client→server overlay TCP segment.
func EncapTCPToServer(src RemoteEndpoint, dst *Container, dstPort uint16, seq uint32, payload []byte) []byte {
	return EncapTCPToServerInto(nil, src, dst, dstPort, seq, payload)
}

// EncapTCPToServerInto is EncapTCPToServer writing into buf's backing
// array when it has the capacity, allocating only on overflow.
func EncapTCPToServerInto(buf []byte, src RemoteEndpoint, dst *Container, dstPort uint16, seq uint32, payload []byte) []byte {
	return pkt.EncapTCPInto(buf, toServer(src, dst, dstPort), pkt.TCPFrameSpec{
		SrcMAC: src.MAC, DstMAC: dst.MAC, SrcIP: src.IP, DstIP: dst.IP,
		SrcPort: src.Port, DstPort: dstPort, Seq: seq,
		Flags: pkt.TCPAck | pkt.TCPPsh, Payload: payload,
	})
}

// toServer is the outer VXLAN header of a client container's frames to
// dst's port.
func toServer(src RemoteEndpoint, dst *Container, dstPort uint16) pkt.VXLANSpec {
	return pkt.VXLANSpec{
		OuterSrcMAC: ClientMAC, OuterDstMAC: ServerMAC,
		OuterSrcIP: ClientIP, OuterDstIP: ServerIP,
		SrcPort: entropyPort(src.IP, dst.IP, src.Port, dstPort), VNI: VNI,
	}
}

// HostUDPToServer builds a plain client→server UDP frame for host-network
// experiments.
func HostUDPToServer(srcPort, dstPort uint16, payload []byte) []byte {
	return HostUDPToServerInto(nil, srcPort, dstPort, payload)
}

// HostUDPToServerInto is HostUDPToServer writing into buf's backing array
// when it has the capacity, allocating only on overflow.
func HostUDPToServerInto(buf []byte, srcPort, dstPort uint16, payload []byte) []byte {
	return pkt.AppendUDPFrame(buf, pkt.UDPFrameSpec{
		SrcMAC: ClientMAC, DstMAC: ServerMAC, SrcIP: ClientIP, DstIP: ServerIP,
		SrcPort: srcPort, DstPort: dstPort, Payload: payload,
	})
}
