// Package testbed builds the paper's two-machine testbed declaratively:
// one Spec — NIC configuration, cost model, engine policy, fault plane
// and observability — is data, and New wires it onto a single engine.
// Client and server share that engine, which is the sequential model every
// figure harness uses. Spec.BuildHost is the per-host building block that
// multi-host topologies (internal/cluster) reuse on their own engines.
package testbed

import (
	"fmt"

	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/par"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/traffic"
)

// Spec declares a whole testbed as data.
type Spec struct {
	// Seed drives every random choice.
	Seed uint64
	// Mode is the priority-database mode (flow classification plus the
	// PRISM batch/sync switch).
	Mode prio.Mode
	// Policy optionally overrides the softirq poll policy by registry
	// name; empty derives it from Mode (see overlay.Config).
	Policy string
	// NIC carries interrupt moderation, GRO and priority-ring settings;
	// per-queue identity is filled in by the overlay.
	NIC nic.Config
	// Costs is the CPU cost model; nil uses netdev.DefaultCosts.
	Costs *netdev.Costs
	// CStates / AppCStates configure processing and application cores.
	CStates    []cpu.CState
	AppCStates []cpu.CState
	// BatchSize, when positive, overrides the NAPI batch weight
	// (Costs.BatchSize) on the host — the ablation knob.
	BatchSize int
	// RxQueues is the number of NIC RX queues the host owns. 0 means 1.
	RxQueues int
	// Pipe instruments the host (the caller names it); nil leaves the
	// testbed uninstrumented.
	Pipe *obs.Pipeline

	// Fault, when set, builds a deterministic fault-injection plane from
	// this configuration and threads it through every layer of the host.
	Fault *fault.Config
	// Shed enables the priority-aware overload drop policy (NIC ring
	// admission and softirq stage transitions shed low-priority first).
	Shed bool
}

// Testbed is one fully wired instance of a Spec.
type Testbed struct {
	// Eng is the engine client and server share.
	Eng *sim.Engine
	// Host is the server host; Pipe its observability pipeline (nil when
	// uninstrumented).
	Host *overlay.Host
	Pipe *obs.Pipeline
	// Client is the client machine's reply demux.
	Client *traffic.Client
	// Plane is the fault plane built from Spec.Fault (nil when not
	// injecting). Run arms its timeline.
	Plane *fault.Plane

	ckptEvery  sim.Time
	ckptTicker *par.Ticker
}

// New wires the testbed a Spec describes.
func New(spec Spec) *Testbed {
	eng := sim.NewEngine(spec.Seed)
	host, plane := spec.build(eng, spec.Pipe)
	return &Testbed{
		Eng:    eng,
		Host:   host,
		Pipe:   spec.Pipe,
		Client: traffic.NewClient(host),
		Plane:  plane,
	}
}

// BuildHost wires one server host from the Spec onto the given engine —
// the per-host building block of multi-host topologies (internal/cluster),
// which derive one Spec per host (distinct seed and fault stream) and
// connect the resulting hosts over fabric links instead of a single
// client wire. The host is always instrumented: the returned pipeline is
// spec.Pipe when set, otherwise a fresh one labeled name, so per-host
// collection stays shard-local and deterministic at any worker count. The
// fault plane is non-nil only when spec.Fault is set; its timeline is NOT
// started — the caller arms it with Plane.Start once the run's horizon is
// known.
func (spec Spec) BuildHost(eng *sim.Engine, name string) (*overlay.Host, *obs.Pipeline, *fault.Plane) {
	pipe := spec.Pipe
	if pipe == nil {
		pipe = obs.NewPipeline(name)
	}
	host, plane := spec.build(eng, pipe)
	return host, pipe, plane
}

// build wires one host instrumented with pipe (nil for none), plus its
// fault plane when spec.Fault is set.
func (spec Spec) build(eng *sim.Engine, pipe *obs.Pipeline) (*overlay.Host, *fault.Plane) {
	cfg := overlay.Config{
		RxQueues:   spec.RxQueues,
		Mode:       spec.Mode,
		Policy:     spec.Policy,
		Costs:      spec.Costs,
		CStates:    spec.CStates,
		AppCStates: spec.AppCStates,
		NIC:        spec.NIC,
		Obs:        pipe,
		Shed:       spec.Shed,
	}
	var plane *fault.Plane
	if spec.Fault != nil {
		plane = fault.NewPlane(eng, *spec.Fault)
		plane.SetObs(pipe)
		cfg.Fault = plane
	}
	host := overlay.NewHost(eng, cfg)
	if spec.BatchSize > 0 {
		host.Costs.BatchSize = spec.BatchSize
	}
	return host, plane
}

// SetCheckpoint arms a virtual-time checkpoint callback: fn observes the
// testbed every interval of virtual time, at points where the engine is
// quiescent, so it may read the host, pipeline and counters race-free. It
// must not mutate simulation state. Checkpoints are pure observation and
// provably leave the run bit-identical: the run is sliced into
// consecutive Engine.Run horizons, and the event schedule is untouched —
// running to t1 then t2 executes exactly the events one run to t2 would.
// Call before Run.
func (t *Testbed) SetCheckpoint(interval sim.Time, fn func(at sim.Time)) {
	if interval <= 0 || fn == nil {
		t.ckptEvery, t.ckptTicker = 0, nil
		return
	}
	t.ckptEvery = interval
	t.ckptTicker = par.NewTicker(interval, fn)
}

// Run executes warmup + duration, resetting the host's processing-core
// utilization window at the end of warmup so utilization reflects only
// the measured interval.
func (t *Testbed) Run(warmup, duration sim.Time) error {
	horizon := warmup + duration
	t.Eng.At(warmup, func() { t.Host.ProcCore.ResetWindow(warmup) })
	// The fault timeline stops scheduling past the horizon, so a post-run
	// Drain terminates.
	t.Plane.Start(horizon)
	if t.ckptTicker != nil {
		for at := t.ckptEvery; at < horizon; at += t.ckptEvery {
			if err := t.Eng.Run(at); err != nil {
				return err
			}
			t.ckptTicker.Advance(at)
		}
	}
	if err := t.Eng.Run(horizon); err != nil {
		return err
	}
	t.ckptTicker.Flush(horizon)
	return nil
}

// Drain runs the testbed to event-queue idle after the horizon,
// interleaving watchdog scans: a lost IRQ with no follow-up traffic
// strands ring packets with no event left to move them, and only a rescue
// re-arms the device. Callers must stop their traffic generators first or
// the engine never goes idle.
func (t *Testbed) Drain() error {
	for i := 0; ; i++ {
		if err := t.Eng.RunUntilIdle(); err != nil {
			return err
		}
		if t.Plane.RescueStuck(t.Eng.Now()) == 0 {
			return nil
		}
		if i >= 64 {
			return fmt.Errorf("testbed: drain did not converge after %d watchdog rounds", i)
		}
	}
}
