// Package experiments contains one harness per figure of the paper's
// evaluation (§V). Each harness builds the full testbed — simulated server,
// traffic generators, measured flows — runs it for a configured duration,
// and returns the same rows/series the paper reports. EXPERIMENTS.md
// records paper-vs-measured for every figure.
package experiments

import (
	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/live"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
)

// Well-known ports used across experiments, mirroring the real tools.
const (
	PortHighPrio  = 11111 // sockperf latency flow
	PortBackgrnd  = 5001  // sockperf throughput flow
	PortTCPStream = 5201  // sockperf TCP throughput flow
	PortMemcached = 11211
	PortHTTP      = 80
)

// Params are the shared knobs of the experiment harnesses.
type Params struct {
	// Seed drives every random choice; same seed, same results.
	Seed uint64
	// Warmup is discarded; Duration is the measured interval.
	Warmup   sim.Time
	Duration sim.Time

	// HighRate is the high-priority latency flow's packet rate (paper: a
	// constant 1000 pps).
	HighRate float64
	// BGRate is the low-priority background rate (paper: ~300 kpps,
	// consuming 60–70% of the processing core).
	BGRate float64
	// LoadRate drives Fig. 8's latency measurement. The paper offers
	// 300 kpps — which equals PRISM-sync's single-core capacity; at
	// exactly capacity a discrete-event model pins the overload artifact,
	// so the default measures at 90% of sync capacity (270 kpps), which
	// keeps the paper's regime. See EXPERIMENTS.md.
	LoadRate float64

	// BGBurst is how many background frames arrive back-to-back per
	// emission. The paper's busy latency distribution is tight (p99 close
	// to the median, both ~5x idle), consistent with steady sender-side
	// burst trains; see EXPERIMENTS.md for the calibration.
	BGBurst int

	// EchoCost is the sockperf server's per-request CPU; SinkCost the
	// background receiver's per-message CPU.
	EchoCost sim.Time
	SinkCost sim.Time

	// DriverPrio enables the §VII-1 extension: NIC-level priority rings
	// (hardware flow steering), removing the stage-1 limitation. Off by
	// default — the paper's prototype does not have it.
	DriverPrio bool

	// Live optionally attaches the HTTP operator surface (prismsim
	// -listen): experiments that support it publish checkpoint metric
	// snapshots, trace deltas, frame taps and run status into the server
	// while they execute. Nil leaves every hook uninstalled. Attaching a
	// server never changes simulation results — the live-surface
	// determinism tests re-derive the committed golden digests with a
	// server attached at every worker count.
	Live *live.Server

	// Workers is the parallelism of multi-point experiment drivers
	// (Fig. 9's mode set, Fig. 11's load grid, the RSS scaling queue
	// counts): up to Workers parameter points run concurrently, each on
	// its own engine (internal/par.ForEach). Results are bit-identical
	// for every value — the determinism tests assert it. <= 1 is the
	// sequential baseline.
	Workers int
}

// Default returns the calibrated defaults.
func Default() Params {
	return Params{
		Seed:     42,
		Warmup:   100 * sim.Millisecond,
		Duration: sim.Second,
		HighRate: 1000,
		BGRate:   300_000,
		BGBurst:  96,
		LoadRate: 270_000,
		EchoCost: 500 * sim.Nanosecond,
		SinkCost: 600 * sim.Nanosecond,
		Workers:  1,
	}
}

// quick shrinks runtimes for unit tests.
func (p Params) quick() Params {
	p.Warmup = 20 * sim.Millisecond
	p.Duration = 150 * sim.Millisecond
	return p
}

// RigOption tweaks the declarative testbed Spec a rig is built from.
type RigOption func(*testbed.Spec)

// WithObs instruments the host's whole receive path with an
// observability pipeline.
func WithObs(pipe *obs.Pipeline) RigOption {
	return func(s *testbed.Spec) { s.Pipe = pipe }
}

// WithBatchSize overrides the NAPI batch weight (Linux default 64) — the
// ablation knob of the batching tradeoff sweep.
func WithBatchSize(n int) RigOption {
	return func(s *testbed.Spec) { s.BatchSize = n }
}

// WithQueues sets the NIC RX queue count (RSS with per-core IRQ
// affinity); the default is the paper's single-core configuration.
func WithQueues(n int) RigOption {
	return func(s *testbed.Spec) { s.RxQueues = n }
}

// WithPolicy overrides the softirq poll policy by registry name
// ("vanilla", "prism", "headonly", "dualq", …) independently of the mode.
func WithPolicy(name string) RigOption {
	return func(s *testbed.Spec) { s.Policy = name }
}

// WithFault threads a deterministic fault-injection plane through the
// host (see testbed.Spec.Fault).
func WithFault(cfg *fault.Config) RigOption {
	return func(s *testbed.Spec) { s.Fault = cfg }
}

// WithShed enables the priority-aware overload drop policy: under
// pressure the NIC ring and the stage queues evict low-priority packets
// to admit high-priority ones instead of rejecting them.
func WithShed() RigOption {
	return func(s *testbed.Spec) { s.Shed = true }
}

// BaseSpec is the standard experiment testbed for a mode: the paper's
// server machine with C1-pinned cores and a ConnectX-5-like NIC (adaptive
// interrupt moderation, GRO on). It is the compilation target the
// declarative scenario layer (internal/scenario) shares with the Go
// harnesses, so a scenario file and the figure code build byte-identical
// testbeds.
func BaseSpec(p Params, mode prio.Mode) testbed.Spec {
	return testbed.Spec{
		Seed:       p.Seed,
		Mode:       mode,
		CStates:    cpu.C1,
		AppCStates: cpu.C1,
		NIC: nic.Config{
			RxUsecs:       8 * sim.Microsecond,
			RxFrames:      32,
			AdaptiveIdle:  100 * sim.Microsecond,
			GRO:           true,
			PriorityRings: p.DriverPrio,
		},
	}
}

// Rig is one fully wired single-engine testbed built from BaseSpec, run
// and measured on a Params block.
type Rig struct {
	*testbed.Testbed
}

// NewRig builds the standard monolithic testbed for a mode; options opt
// into observability, RX queues, poll-policy and batch-weight overrides.
func NewRig(p Params, mode prio.Mode, opts ...RigOption) *Rig {
	spec := BaseSpec(p, mode)
	for _, opt := range opts {
		opt(&spec)
	}
	return &Rig{testbed.New(spec)}
}

// Run executes warmup + duration and resets the utilization window at the
// end of warmup so Utilization reflects only the measured interval.
func (r *Rig) Run(p Params) error {
	return r.Testbed.Run(p.Warmup, p.Duration)
}

// Utilization returns the processing core's busy fraction over the
// measured interval.
func (r *Rig) Utilization() float64 {
	return r.Host.ProcCore.Utilization(r.Eng.Now())
}

// start wires flows with p's warmup and echo/sink costs (see
// testbed.Testbed.Start).
func (r *Rig) start(p Params, flows ...testbed.Flow) []*testbed.Source {
	srcs, err := r.Start(p.Warmup, p.EchoCost, p.SinkCost, flows...)
	mustNoErr(err)
	return srcs
}

// bgFlood is the calibrated background load: a PortBackgrnd flood into
// ctr from client index client, in steady p.BGBurst-frame trains with
// ±25% jitter.
func bgFlood(p Params, ctr string, client int, rate float64) testbed.Flow {
	steady, jitter := false, 0.25
	return testbed.Flow{
		Kind: testbed.Flood, Container: ctr, Port: PortBackgrnd, Client: client, Rate: rate,
		Burst: p.BGBurst, Poisson: &steady, JitterFrac: &jitter,
	}
}

// Modes lists the three compared configurations in presentation order.
var Modes = []prio.Mode{prio.ModeVanilla, prio.ModeBatch, prio.ModeSync}
