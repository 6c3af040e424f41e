package scenario

import (
	"fmt"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/prio"
	"prism/internal/testbed"
)

// Plan is a compiled scenario: the exact inputs the Go harnesses take.
// Compile is a pure lowering — no simulation state is built here — so a
// Plan can be inspected, and Run executed, independently.
type Plan struct {
	Scenario *Scenario

	// Params is the shared harness parameter block; every topology and
	// experiment derives from it, exactly as the figure code does.
	Params experiments.Params

	// Kind names what Run will execute: an experiment kind (fig3 …
	// cluster) or "custom/<split>".
	Kind string

	// Args are the experiment's grid knobs (zero for custom topologies).
	Args experiments.Args

	// Custom topology targets: Spec for single-host runs, Cluster for
	// multi-host runs. Exactly one is non-nil on a custom plan.
	Spec       *testbed.Spec
	ClusterRun *cluster.Config
}

var modeNames = map[string]prio.Mode{
	"vanilla":     prio.ModeVanilla,
	"prism-batch": prio.ModeBatch,
	"prism-sync":  prio.ModeSync,
}

// Compile lowers a validated Scenario onto experiments.Params,
// testbed.Spec and cluster.Config. The paper-figure scenarios compile to
// byte-identical harness inputs — the round-trip tests prove the outputs
// match the committed golden fixtures bit for bit.
func Compile(s *Scenario) (*Plan, error) {
	p := experiments.Default()
	p.Seed = s.Seed
	p.Warmup = s.Warmup
	p.Duration = s.Duration
	p.Workers = s.Workers
	tp := s.Traffic
	if tp.HighRate > 0 {
		p.HighRate = tp.HighRate
	}
	if tp.BGRate > 0 {
		p.BGRate = tp.BGRate
	}
	if tp.LoadRate > 0 {
		p.LoadRate = tp.LoadRate
	}
	if tp.BGBurst > 0 {
		p.BGBurst = tp.BGBurst
	}
	if tp.EchoCost > 0 {
		p.EchoCost = tp.EchoCost
	}
	if tp.SinkCost > 0 {
		p.SinkCost = tp.SinkCost
	}
	p.DriverPrio = tp.DriverPrio
	plan := &Plan{Scenario: s, Params: p}

	if e := s.Experiment; e != nil {
		plan.Kind, plan.Args = e.Kind, e.Args
		if err := e.Args.Validate(e.Kind); err != nil {
			return nil, fmt.Errorf("scenario.experiment.%w", err)
		}
		return plan, nil
	}

	t := s.Topology
	plan.Kind = "custom/" + t.Split
	mode := modeNames[t.Mode]
	var costs *netdev.Costs
	if l := s.Link; l != nil {
		c := *netdev.DefaultCosts()
		if l.WireLatency > 0 {
			c.WireLatency = l.WireLatency
		}
		if l.BandwidthBps > 0 {
			c.LinkBandwidthBps = l.BandwidthBps
		}
		costs = &c
	}

	if t.Split == "cluster" {
		host := experiments.BaseSpec(p, mode)
		host.Policy = t.Policy
		host.Costs = costs
		host.Shed = t.Shed
		cfg := &cluster.Config{
			Hosts:    t.Hosts,
			HostCap:  t.HostCap,
			Seed:     p.Seed,
			Host:     host,
			Fabric:   cluster.FabricConfig{Racks: t.Racks},
			Warmup:   p.Warmup,
			EchoCost: p.EchoCost,
			SinkCost: p.SinkCost,
		}
		if t.Placement != "" {
			pol, err := cluster.ParsePlacement(t.Placement)
			if err != nil {
				return nil, fmt.Errorf("scenario.topology.placement: %w", err)
			}
			cfg.Placement = pol
		}
		if a := t.Admission; a != nil {
			cfg.Admission = &cluster.Admission{
				Rate: a.Rate, Burst: float64(a.Burst), HiReserve: a.HiReserve,
			}
		}
		for _, g := range s.Workload {
			for k := 0; k < g.Count; k++ {
				name := g.Name
				if g.Count > 1 {
					name = fmt.Sprintf("%s%03d", g.Name, k)
				}
				cfg.Specs = append(cfg.Specs, cluster.ContainerSpec{
					Name:    name,
					Hi:      g.Priority == "hi",
					Rate:    g.Rate,
					Flood:   g.Type == "flood",
					Ingress: g.Ingress,
				})
			}
		}
		if err := cluster.CheckScale(t.Hosts, cluster.HostCapacity(t.HostCap), len(cfg.Specs)); err != nil {
			return nil, fmt.Errorf("scenario.topology: %w", err)
		}
		if f := s.Faults; f != nil {
			// A fault section on a cluster arms the recovery controller:
			// scripted kind entries lower to its failure script, rate
			// content to per-host fault planes (cluster.New re-derives
			// each plane's seed from the host's engine stream).
			rc := &cluster.RecoveryConfig{}
			fcfg := &fault.Config{Rate: f.Rate, Classes: f.Classes}
			rateContent := f.Rate > 0
			for _, ph := range f.Phases {
				if ph.Kind != "" {
					kind, err := cluster.ParseEventKind(ph.Kind)
					if err != nil {
						return nil, fmt.Errorf("scenario.faults.phases: %w", err)
					}
					rc.Script = append(rc.Script, cluster.Event{
						Kind: kind, Host: ph.Host, Tor: ph.Tor,
						At: ph.From, Until: ph.Until,
					})
					continue
				}
				rateContent = true
				fcfg.Phases = append(fcfg.Phases, fault.Phase{
					From: ph.From, Until: ph.Until, Rate: ph.Rate, Classes: ph.Classes,
				})
			}
			if rateContent {
				cfg.Host.Fault = fcfg
				cfg.Host.Shed = cfg.Host.Shed || f.Shed
			}
			cfg.Recovery = rc
		}
		plan.ClusterRun = cfg
		return plan, nil
	}

	spec := experiments.BaseSpec(p, mode)
	spec.Policy = t.Policy
	spec.Costs = costs
	spec.RxQueues = t.RxQueues
	spec.BatchSize = t.BatchSize
	spec.Shed = t.Shed
	if f := s.Faults; f != nil {
		cfg := &fault.Config{
			Seed:    f.Seed,
			Rate:    f.Rate,
			Classes: f.Classes,
		}
		if !f.seedSet {
			cfg.Seed = p.Seed
		}
		for _, ph := range f.Phases {
			cfg.Phases = append(cfg.Phases, fault.Phase{
				From: ph.From, Until: ph.Until, Rate: ph.Rate, Classes: ph.Classes,
			})
		}
		spec.Fault = cfg
		spec.Shed = spec.Shed || f.Shed
	}
	plan.Spec = &spec
	return plan, nil
}
