// Package prism is the public API of the PRISM reproduction: a
// discrete-event simulation of the Linux NAPI receive path with PRISM's
// priority-based streamlined packet processing (Munikar, Lei, Lu, Rao —
// "PRISM: Streamlined Packet Processing for Containers with Flow
// Prioritization", ICDCS 2022).
//
// A Simulation wires the paper's testbed: a server machine whose receive
// pipeline (NIC → VXLAN decap → bridge → veth → socket) is simulated in
// full, Docker-style containers on a VXLAN overlay, sockperf-like traffic
// generators, and the three receive engines under study — the vanilla
// two-list NAPI, PRISM-batch, and PRISM-sync.
//
// Quick start:
//
//	sim := prism.NewSimulation(prism.WithMode(prism.ModeSync))
//	srv := sim.AddContainer("server")
//	sim.MarkHighPriority(srv.IP, 11111)
//	flow := sim.NewLatencyFlow(srv, 11111, 1000) // 1 kpps ping-pong
//	sim.NewBackgroundFlood(sim.AddContainer("noise"), 5001, 300_000)
//	sim.Run(time.Second)
//	fmt.Println(flow.Summary())
//
// The experiment harnesses that regenerate every figure of the paper live
// behind RunFig3 … RunFig13; `cmd/prismsim` exposes them on the command
// line.
package prism

import (
	"fmt"
	"io"
	"time"

	"prism/internal/experiments"
	"prism/internal/netdev"
	"prism/internal/overlay"
	"prism/internal/pcap"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/socket"
	"prism/internal/softirq"
	"prism/internal/stats"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// Mode selects the receive engine.
type Mode = prio.Mode

// Receive-engine modes.
const (
	// ModeVanilla is the unmodified Linux NAPI baseline (Fig. 2).
	ModeVanilla = prio.ModeVanilla
	// ModeBatch is PRISM-batch: dual per-device queues with batch-level
	// preemption via head insertion (Fig. 7).
	ModeBatch = prio.ModeBatch
	// ModeSync is PRISM-sync: run-to-completion processing of
	// high-priority packets through all stages in one softirq.
	ModeSync = prio.ModeSync
)

// Re-exported building blocks for advanced use.
type (
	// Costs is the central CPU cost model (see DefaultCosts).
	Costs = netdev.Costs
	// Summary is a latency distribution summary.
	Summary = stats.Summary
	// CDFPoint is one point of a latency CDF.
	CDFPoint = stats.CDFPoint
	// Container is a server-side container on the overlay network.
	Container = overlay.Container
	// IPv4 is a dotted-quad address.
	IPv4 = pkt.IPv4
	// Message is a datagram as seen by a container application.
	Message = socket.Message
	// App consumes messages delivered to a bound socket.
	App = socket.App
	// AppFunc adapts functions to App.
	AppFunc = socket.AppFunc
	// VirtualTime is a point in simulated time (nanoseconds).
	VirtualTime = sim.Time
)

// DefaultCosts returns the calibrated cost model for the paper's testbed
// (Xeon Silver 4114, ConnectX-5 100 GbE, Linux 5.4).
func DefaultCosts() *Costs { return netdev.DefaultCosts() }

// Option configures a Simulation by editing the testbed it is built from.
type Option func(*testbed.Spec)

// WithMode selects the receive engine (default ModeVanilla).
func WithMode(m Mode) Option { return func(s *testbed.Spec) { s.Mode = m } }

// WithSeed sets the deterministic random seed (default 42).
func WithSeed(seed uint64) Option { return func(s *testbed.Spec) { s.Seed = seed } }

// WithCosts overrides the CPU cost model.
func WithCosts(costs *Costs) Option { return func(s *testbed.Spec) { s.Costs = costs } }

// WithoutPowerManagement disables C-states (always-on cores).
func WithoutPowerManagement() Option {
	return func(s *testbed.Spec) { s.CStates, s.AppCStates = nil, nil }
}

// WithNICModeration sets static interrupt moderation (rx-usecs/rx-frames).
func WithNICModeration(usecs time.Duration, frames int) Option {
	return func(s *testbed.Spec) {
		s.NIC.RxUsecs = sim.Duration(usecs)
		s.NIC.RxFrames = frames
	}
}

// WithoutGRO disables generic receive offload at the NIC.
func WithoutGRO() Option { return func(s *testbed.Spec) { s.NIC.GRO = false } }

// WithDriverPriority enables the §VII-1 extension: NIC-level priority
// rings (hardware flow steering), which remove the stage-1 limitation.
// Effective only with PRISM modes; vanilla cannot use the extra ring.
func WithDriverPriority() Option { return func(s *testbed.Spec) { s.NIC.PriorityRings = true } }

// WithPolicy overrides the softirq poll policy by registry name
// ("vanilla", "prism", or an ablation such as "headonly" or "dualq").
// By default the policy is derived from the mode; the override lets the
// paper's mechanisms be enabled one at a time. Panics at NewSimulation if
// the name is not registered (see Policies).
func WithPolicy(name string) Option { return func(s *testbed.Spec) { s.Policy = name } }

// Policies returns the registered softirq poll policy names, sorted.
func Policies() []string { return softirq.Policies() }

// Simulation is a fully wired testbed instance.
type Simulation struct {
	eng    *sim.Engine
	host   *overlay.Host
	client *traffic.Client

	nextClientIdx int
}

// NewSimulation builds the paper's server machine — the experiment
// harnesses' testbed (experiments.BaseSpec: 8 µs / 32-frame adaptive
// interrupt moderation, GRO, C1-pinned cores) with seed 42 — then applies
// the options.
func NewSimulation(opts ...Option) *Simulation {
	spec := experiments.BaseSpec(experiments.Default(), ModeVanilla)
	for _, opt := range opts {
		opt(&spec)
	}
	tb := testbed.New(spec)
	return &Simulation{eng: tb.Eng, host: tb.Host, client: tb.Client}
}

// AddContainer creates a container on the overlay with its own
// application core and network namespace.
func (s *Simulation) AddContainer(name string) *Container {
	return s.host.AddContainer(name)
}

// MarkHighPriority adds an (IP, port) rule to the runtime priority
// database — the paper's procfs interface. A zero IP or port is a
// wildcard.
func (s *Simulation) MarkHighPriority(ip IPv4, port uint16) {
	s.host.DB.Add(prio.Rule{IP: ip, Port: port})
}

// MarkPriorityLevel is the multi-level variant (§VII-3): level 1 is the
// paper's single high class; higher levels (up to 8) preempt lower ones
// within every high-priority queue.
func (s *Simulation) MarkPriorityLevel(ip IPv4, port uint16, level int) {
	s.host.DB.Add(prio.Rule{IP: ip, Port: port, Level: level})
}

// SetMode switches the PRISM operation mode at runtime (between ModeBatch
// and ModeSync; the engine choice vanilla-vs-PRISM is fixed at
// construction, as it is a kernel build in the paper).
func (s *Simulation) SetMode(m Mode) { s.host.DB.SetMode(m) }

// ApplyRule parses a textual "ip:port" rule (with "*" wildcards) and adds
// ("add") or removes ("del") it — the procfs write path a scenario file's
// control: list also takes.
func (s *Simulation) ApplyRule(op, rule string) error {
	r, err := prio.ParseRule(rule)
	if err != nil {
		return err
	}
	switch op {
	case "add":
		s.host.DB.Add(r)
	case "del":
		s.host.DB.Remove(r)
	default:
		return fmt.Errorf("prism: unknown rule op %q", op)
	}
	return nil
}

// Rules returns the current priority database as sorted "ip:port" strings.
func (s *Simulation) Rules() []string {
	rules := s.host.DB.Rules()
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.String()
	}
	return out
}

// Addr builds an IPv4 address.
func Addr(a, b, c, d byte) IPv4 { return pkt.Addr(a, b, c, d) }

// LatencyFlow is a sockperf-style measured ping-pong flow.
type LatencyFlow struct {
	pp *traffic.PingPong
}

// NewLatencyFlow starts a rate-limited ping-pong flow from a fresh client
// container to the target container's UDP port, with a default echo
// server installed. Latency is recorded as RTT/2, as sockperf reports.
func (s *Simulation) NewLatencyFlow(target *Container, port uint16, pps float64) *LatencyFlow {
	src := overlay.ClientContainer(s.nextClientIdx, uint16(40000+s.nextClientIdx))
	s.nextClientIdx++
	pp := traffic.NewPingPong(s.eng, s.host, target, src, port, pps)
	if err := pp.InstallEcho(500 * sim.Nanosecond); err != nil {
		panic("prism: " + err.Error())
	}
	pp.Start(s.client, 0)
	return &LatencyFlow{pp: pp}
}

// Summary returns the measured latency distribution (RTT/2).
func (f *LatencyFlow) Summary() Summary { return f.pp.Hist.Summarize() }

// KernelSummary returns the server-side in-kernel residence distribution
// (NIC ring to socket buffer).
func (f *LatencyFlow) KernelSummary() Summary { return f.pp.KernelHist.Summarize() }

// CDF returns the measured latency CDF.
func (f *LatencyFlow) CDF() []CDFPoint { return f.pp.Hist.CDF() }

// Sent and Received report flow counters.
func (f *LatencyFlow) Sent() uint64 { return f.pp.Sent }

// Received reports replies seen by the client.
func (f *LatencyFlow) Received() uint64 { return f.pp.Received }

// BackgroundFlood is an open-loop low-priority traffic source.
type BackgroundFlood struct {
	fl *traffic.UDPFlood
}

// NewBackgroundFlood starts a sockperf-throughput-style UDP flood of small
// packets to the target container, with a counting sink installed.
func (s *Simulation) NewBackgroundFlood(target *Container, port uint16, pps float64) *BackgroundFlood {
	src := overlay.ClientContainer(s.nextClientIdx, uint16(40000+s.nextClientIdx))
	s.nextClientIdx++
	fl := traffic.NewUDPFlood(s.eng, s.host, target, src, port, pps)
	if err := fl.InstallSink(600 * sim.Nanosecond); err != nil {
		panic("prism: " + err.Error())
	}
	fl.Start(0)
	return &BackgroundFlood{fl: fl}
}

// Delivered reports how many background messages the sink has received.
func (b *BackgroundFlood) Delivered() uint64 { return b.fl.Delivered.Count() }

// Bind installs a custom application on a container port (UDP).
func (s *Simulation) Bind(ctr *Container, port uint16, app App) error {
	_, err := ctr.Bind(pkt.ProtoUDP, port, app, 4096)
	return err
}

// CapturePackets streams every wire frame (both directions) to w in pcap
// format; the capture opens in Wireshark with full dissection, since the
// simulator carries byte-accurate Ethernet/IPv4/UDP/TCP/VXLAN frames.
// Call before Run; returns the writer whose Packets counter reports the
// number captured.
func (s *Simulation) CapturePackets(w io.Writer) *pcap.Writer {
	pw := pcap.NewWriter(w)
	s.host.Tap = func(now sim.Time, frame []byte, _ bool) {
		// Ignore write errors here: a failing sink must not abort the
		// simulation; the caller sees the count and can Flush.
		_ = pw.WritePacket(now, frame)
	}
	return pw
}

// Run advances the simulation by d of virtual time.
func (s *Simulation) Run(d time.Duration) {
	if err := s.eng.Run(s.eng.Now() + sim.Duration(d)); err != nil {
		panic("prism: " + err.Error())
	}
}

// Now returns the current virtual time.
func (s *Simulation) Now() VirtualTime { return s.eng.Now() }

// ProcessingUtilization returns the packet-processing core's busy fraction
// since the last ResetUtilization call.
func (s *Simulation) ProcessingUtilization() float64 {
	return s.host.ProcCore.Utilization(s.eng.Now())
}

// ResetUtilization starts a fresh utilization window.
func (s *Simulation) ResetUtilization() {
	s.host.ProcCore.ResetWindow(s.eng.Now())
}

// ExperimentParams are the shared experiment knobs.
type ExperimentParams = experiments.Params

// DefaultExperimentParams returns the calibrated defaults used throughout
// EXPERIMENTS.md.
func DefaultExperimentParams() ExperimentParams { return experiments.Default() }

// The per-figure harnesses; see EXPERIMENTS.md for paper-vs-measured.
var (
	// RunFig3 measures vanilla overlay latency, idle vs busy.
	RunFig3 = experiments.Fig3
	// RunFig6 captures the NAPI poll-order tables.
	RunFig6 = experiments.Fig6
	// RunFig8 measures per-mode latency and single-core max throughput.
	RunFig8 = experiments.Fig8
	// RunFig9 measures overlay priority differentiation under load.
	RunFig9 = experiments.Fig9
	// RunFig10 repeats Fig9 on the host network (null result).
	RunFig10 = experiments.Fig10
	// RunFig11 sweeps background load.
	RunFig11 = experiments.Fig11
	// RunFig12 runs the memcached benchmark.
	RunFig12 = experiments.Fig12
	// RunFig13 runs the web-serving benchmark.
	RunFig13 = experiments.Fig13
	// RunPolicies runs the softirq poll-policy ablation (nil variants =
	// the default ladder: vanilla, dualq, headonly, prism-batch, -sync).
	RunPolicies = experiments.Policies
)
