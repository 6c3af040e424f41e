package main

import (
	"fmt"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/par"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/traffic"
)

// scale sizes the workloads. fullScale is the benchmark; the smoke test
// runs the same workloads at a tiny scale.
type scale struct {
	// warmup and duration bound the single-host runs.
	warmup, duration sim.Time
	// clusterWarmup and clusterDuration bound the cluster runs.
	clusterWarmup, clusterDuration sim.Time
	hosts, containers              int
}

// fullScale is the Fig. 9 busy point for the single host (1 s of virtual
// time) and the cluster golden's 16 hosts / 1000 containers, shortened to
// 100 ms so one cluster rep stays under a second of wall time.
var fullScale = scale{
	warmup:          20 * sim.Millisecond,
	duration:        sim.Second,
	clusterWarmup:   20 * sim.Millisecond,
	clusterDuration: 100 * sim.Millisecond,
	hosts:           16,
	containers:      1000,
}

// tcpMsgRate is tcp-vanilla's 64 KiB-message rate: about 1.35 M MTU
// frames/s offered, enough to keep vanilla's queued batch polling and GRO
// busy without the ring overrun dominating the run.
const tcpMsgRate = 30_000

// setupFunc builds one rep's simulation; the benchmark times it as setup_s.
type setupFunc func() (*instance, error)

// workload is one named input set. prepare generates the inputs from the
// seed, untimed and once per process, and returns the set-up every rep of
// the workload times.
type workload struct {
	name    string
	prepare func(seed uint64, sc scale) setupFunc
	// twin names a workload whose outputs this one must reproduce: the
	// core digest always, the observability digest when twinObs is set.
	twin    string
	twinObs bool
}

// workloads is the fixed benchmark order; round-robin passes run one rep
// of each, in this order.
var workloads = []workload{
	// Smallest packets on the PRISM-sync run-to-completion path: per-packet
	// datapath cost dominates, and obs, par and the fabric are bypassed.
	{name: "flood", prepare: singleHost(prio.ModeSync, false, false)},
	// The same inputs with an observability pipeline on the host: only obs
	// differs, so the pair isolates its cost, and the simulated results
	// must not change (observer neutrality).
	{name: "flood-obs", prepare: singleHost(prio.ModeSync, false, true), twin: "flood"},
	// Vanilla NAPI queued batch polling with MTU frames and GRO: the same
	// layers used differently.
	{name: "tcp-vanilla", prepare: singleHost(prio.ModeVanilla, true, false)},
	// The 16-host fabric with 1000 containers on one worker: set-up,
	// par windows, switches and cluster-wide obs.
	{name: "cluster", prepare: clusterWorkload(1)},
	// The same inputs on two workers: par barrier cost and scaling. Worker
	// count must not change the results.
	{name: "cluster-par", prepare: clusterWorkload(2), twin: "cluster", twinObs: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one built simulation, ready to run. The benchmark reads
// every layer through these public handles only.
type instance struct {
	hosts   []*overlay.Host
	engines []*sim.Engine
	// group is the par scheduler of a sharded run; nil on one engine.
	group   *par.Group
	workers int
	// pipes are the observability pipelines in shard order.
	pipes []*obs.Pipeline
	// hi are the high-priority echo flows; echoes every echo flow.
	hi, echoes []*traffic.PingPong
	floods     []*traffic.UDPFlood
	streams    []*traffic.TCPStream
	// injects are the generators' wire hooks the traced rep may take
	// over (single-host only: cluster generators already feed the fabric).
	injects []*func(now, arrive sim.Time, frame []byte)
	cl      *cluster.Cluster
	horizon sim.Time
	run     func() error
	check   func() error
}

// clientSrc is the idx-th client-side container, with the source ports
// the experiment harnesses use.
func clientSrc(idx int) overlay.RemoteEndpoint {
	return overlay.ClientContainer(idx, uint16(40000+idx))
}

// singleHost builds the Fig. 9 rig (experiments.latencyUnderLoad's
// wiring): a 1 kpps high-priority echo to one container and, to a second,
// either the 300 kpps UDP flood in bursts of 96 or the 64 KiB TCP stream.
func singleHost(mode prio.Mode, tcp, withObs bool) func(uint64, scale) setupFunc {
	return func(seed uint64, sc scale) setupFunc {
		p := experiments.Default()
		p.Seed, p.Warmup, p.Duration = seed, sc.warmup, sc.duration
		return func() (*instance, error) {
			var opts []experiments.RigOption
			var pipes []*obs.Pipeline
			if withObs {
				pipe := obs.NewPipeline("server")
				opts = append(opts, experiments.WithObs(pipe))
				pipes = append(pipes, pipe)
			}
			r := experiments.NewRig(p, mode, opts...)
			hiCtr := r.Host.AddContainer("hi-srv")
			pp := traffic.NewPingPong(r.Eng, r.Host, hiCtr, clientSrc(0), experiments.PortHighPrio, p.HighRate)
			r.Host.DB.Add(prio.Rule{IP: hiCtr.IP, Port: experiments.PortHighPrio})
			pp.Warmup = p.Warmup
			if err := pp.InstallEcho(p.EchoCost); err != nil {
				return nil, err
			}
			pp.Start(r.Client, 0)
			in := &instance{
				hosts:   []*overlay.Host{r.Host},
				engines: []*sim.Engine{r.Eng},
				workers: 1,
				pipes:   pipes,
				hi:      []*traffic.PingPong{pp},
				echoes:  []*traffic.PingPong{pp},
				injects: []*func(sim.Time, sim.Time, []byte){&pp.Inject},
				horizon: p.Warmup + p.Duration,
				run:     func() error { return r.Run(p) },
				check:   r.CheckInvariants,
			}
			bg := r.Host.AddContainer("bg-srv")
			if tcp {
				st := traffic.NewTCPStream(r.Eng, r.Host, bg, clientSrc(1), experiments.PortTCPStream, tcpMsgRate)
				if err := st.InstallSink(p.SinkCost); err != nil {
					return nil, err
				}
				st.Start(0)
				in.streams = append(in.streams, st)
				in.injects = append(in.injects, &st.Inject)
				return in, nil
			}
			fl := traffic.NewUDPFlood(r.Eng, r.Host, bg, clientSrc(1), experiments.PortBackgrnd, p.BGRate)
			fl.Burst = p.BGBurst
			fl.Poisson = false
			fl.JitterFrac = 0.25
			if err := fl.InstallSink(p.SinkCost); err != nil {
				return nil, err
			}
			fl.Start(0)
			in.floods = append(in.floods, fl)
			in.injects = append(in.injects, &fl.Inject)
			return in, nil
		}
	}
}

// clusterSpecs is the container recipe of experiments.clusterSpecs (which
// is unexported): one flood sink per host, every ninth remaining
// container a high-priority echo, the rest best-effort echoes at a fifth
// of that rate, with a deterministic spread of ingress hosts.
func clusterSpecs(p experiments.Params, hosts, containers int) []cluster.ContainerSpec {
	specs := make([]cluster.ContainerSpec, 0, containers)
	for i := 0; i < containers; i++ {
		ingress := (i*7 + 3) % hosts
		switch {
		case i < hosts:
			specs = append(specs, cluster.ContainerSpec{
				Name: fmt.Sprintf("bg%04d", i), Flood: true,
				Rate: p.BGRate / 8, Ingress: ingress,
			})
		case (i-hosts)%9 == 0:
			specs = append(specs, cluster.ContainerSpec{
				Name: fmt.Sprintf("hi%04d", i), Hi: true,
				Rate: p.HighRate, Ingress: ingress,
			})
		default:
			specs = append(specs, cluster.ContainerSpec{
				Name: fmt.Sprintf("lo%04d", i),
				Rate: p.HighRate / 5, Ingress: ingress,
			})
		}
	}
	return specs
}

// clusterWorkload builds the cluster experiment's priority-placement
// point (experiments.clusterPoint's configuration) run on workers workers.
func clusterWorkload(workers int) func(uint64, scale) setupFunc {
	return func(seed uint64, sc scale) setupFunc {
		p := experiments.Default()
		p.Seed = seed
		specs := clusterSpecs(p, sc.hosts, sc.containers)
		return func() (*instance, error) {
			c, err := cluster.New(cluster.Config{
				Hosts:     sc.hosts,
				Placement: cluster.PlacePriority,
				Seed:      seed,
				Host:      experiments.BaseSpec(p, prio.ModeSync),
				Specs:     specs,
				Admission: &cluster.Admission{Rate: 55_000, Burst: 96, HiReserve: 0.25},
				Warmup:    sc.clusterWarmup,
				EchoCost:  p.EchoCost,
				SinkCost:  p.SinkCost,
			})
			if err != nil {
				return nil, err
			}
			in := &instance{
				group:   c.Group,
				workers: workers,
				pipes:   c.Pipes(),
				cl:      c,
				horizon: sc.clusterWarmup + sc.clusterDuration,
				run:     func() error { return c.Run(sc.clusterDuration, workers) },
				check:   func() error { return c.CheckInvariants(false) },
			}
			for _, n := range c.Nodes {
				in.hosts = append(in.hosts, n.Host)
			}
			for _, s := range c.Group.Shards() {
				in.engines = append(in.engines, s.Eng)
			}
			for _, f := range c.Flows {
				switch {
				case f.Flood != nil:
					in.floods = append(in.floods, f.Flood)
				case f.Spec.Hi:
					in.hi = append(in.hi, f.PP)
					in.echoes = append(in.echoes, f.PP)
				default:
					in.echoes = append(in.echoes, f.PP)
				}
			}
			return in, nil
		}
	}
}
