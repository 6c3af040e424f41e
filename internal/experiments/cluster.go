package experiments

import (
	"fmt"
	"strings"

	"prism/internal/cluster"
	"prism/internal/live"
	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/stats"
)

// ClusterConfig sizes the datacenter experiment.
type ClusterConfig struct {
	// Hosts / Containers set the cluster scale.
	Hosts      int
	Containers int
	// Placements lists the compared policies (empty = all three).
	Placements []cluster.Placement
}

// DefaultClusterConfig is the paper-scale point the golden fixtures pin:
// 16 hosts in 2 racks, 1000 containers.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{Hosts: 16, Containers: 1000, Placements: cluster.Placements}
}

func (cc ClusterConfig) withDefaults() ClusterConfig {
	def := DefaultClusterConfig()
	if cc.Hosts <= 0 {
		cc.Hosts = def.Hosts
	}
	if cc.Containers <= 0 {
		cc.Containers = def.Containers
	}
	if len(cc.Placements) == 0 {
		cc.Placements = def.Placements
	}
	return cc
}

// ClusterSpecs builds the experiment workload: one flood sink per host
// (the cross-host background load), every ninth remaining container a
// high-priority echo at p.HighRate, the rest best-effort echoes at a
// fifth of that. Ingress hosts are a deterministic spread, so most flows
// cross the fabric and many cross racks.
func ClusterSpecs(p Params, hosts, containers int) []cluster.ContainerSpec {
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

// ClusterRow is one placement policy's measurement.
type ClusterRow struct {
	Placement string

	// Hi / Lo summarize the prioritized and best-effort echo latencies
	// (merged across all flows of the class).
	Hi stats.Summary
	Lo stats.Summary

	HiSent, HiRecv uint64
	LoSent, LoRecv uint64
	FloodRecv      uint64

	// AdmitDenied counts ingress token-bucket refusals; FabricDrops the
	// switches' discards, FabricShed the best-effort victims evicted for
	// high-priority frames.
	AdmitDenied uint64
	FabricDrops uint64
	FabricShed  uint64

	FabricUtilMax  float64
	FabricUtilMean float64

	// Windows is the par scheduler's barrier count — identical for every
	// worker count by construction.
	Windows uint64

	// MetricsSHA / SpansSHA digest the merged observability streams of
	// every host and switch pipeline; the determinism gates compare them
	// across worker counts.
	MetricsSHA string
	SpansSHA   string
}

// ClusterResult is the datacenter experiment: hi/lo tail latency and
// fabric load per placement policy.
type ClusterResult struct {
	Seed       uint64
	Hosts      int
	Containers int
	Racks      int
	Rows       []ClusterRow
}

// Cluster runs the multi-host datacenter experiment: the same workload
// placed by each policy in turn, each run a full cluster simulation over
// p.Workers shard workers (bit-identical for any worker count).
func Cluster(p Params, cc ClusterConfig) ClusterResult {
	cc = cc.withDefaults()
	res := ClusterResult{Seed: p.Seed, Hosts: cc.Hosts, Containers: cc.Containers}
	for _, pol := range cc.Placements {
		row, racks := clusterPoint(p, cc, pol)
		res.Racks = racks
		res.Rows = append(res.Rows, row)
	}
	return res
}

// clusterConfig is the cluster and failover experiments' shared point:
// PRISM-sync hosts running the ClusterSpecs workload under placement pol.
func clusterConfig(p Params, hosts, containers int, pol cluster.Placement) cluster.Config {
	return cluster.Config{
		Hosts:     hosts,
		Placement: pol,
		Seed:      p.Seed,
		Host:      BaseSpec(p, prio.ModeSync),
		Specs:     ClusterSpecs(p, hosts, containers),
		// Slightly below the busiest hosts' offered ingress, so the
		// bucket visibly shaves best-effort bursts while the reserve
		// keeps prioritized flows untouched.
		Admission: &cluster.Admission{Rate: 55_000, Burst: 96, HiReserve: 0.25},
		Warmup:    p.Warmup,
		EchoCost:  p.EchoCost,
		SinkCost:  p.SinkCost,
	}
}

func clusterPoint(p Params, cc ClusterConfig, pol cluster.Placement) (ClusterRow, int) {
	var racks int
	row, err := RunCluster(p, clusterConfig(p, cc.Hosts, cc.Containers, pol), "cluster/"+pol.String(), true,
		nil, func(c *cluster.Cluster) { racks = c.Cfg.Fabric.Racks })
	mustNoErr(err)
	return row, racks
}

// RunCluster is the one path every cluster run takes. It builds cfg,
// attaches the live surface (when p.Live is set) under the name run,
// calls prepare, runs p.Duration past the warmup on p.Workers workers,
// then calls measure and records the fabric-wide row at the horizon:
// latency, flow counts, admission and fabric load, and the digests of
// every host and switch pipeline in shard order, which the determinism
// gates compare across worker counts. Last it detaches the surface,
// settles the cluster and checks its invariants (strict: zero-leak).
// prepare and measure may be nil.
func RunCluster(p Params, cfg cluster.Config, run string, strict bool, prepare, measure func(*cluster.Cluster)) (ClusterRow, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return ClusterRow{}, err
	}
	detach := attachLive(p.Live, c, run, cfg.Warmup+p.Duration)
	if prepare != nil {
		prepare(c)
	}
	if err := c.Run(p.Duration, p.Workers); err != nil {
		return ClusterRow{}, err
	}
	if measure != nil {
		measure(c)
	}

	row := ClusterRow{Placement: cfg.Placement.String(), Windows: c.Group.Windows}
	hiH, loH := c.LatencyHists()
	row.Hi, row.Lo = hiH.Summarize(), loH.Summarize()
	row.HiSent, row.HiRecv, row.LoSent, row.LoRecv, _, row.FloodRecv = c.FlowCounts()
	row.AdmitDenied = c.AdmissionDenied()
	row.FabricDrops, row.FabricShed = c.FabricDrops()
	row.FabricUtilMax, row.FabricUtilMean = c.FabricUtilization(c.Horizon())
	if row.MetricsSHA, row.SpansSHA, err = obs.Digests(c.Pipes()...); err != nil {
		return row, err
	}
	detach()

	if err := c.Settle(0, p.Workers); err != nil {
		return row, err
	}
	if err := c.CheckInvariants(strict); err != nil {
		return row, fmt.Errorf("conservation check failed: %w", err)
	}
	return row, nil
}

// attachLive attaches the live operator surface lv, when one is listening,
// to the cluster run named run: frame taps feed /capture (classified by
// the cluster's flow table), and a virtual-time checkpoint streams merged
// metric snapshots, trace deltas, per-port fabric load and the parallel
// runtime's window counters. Every hook is pure observation at quiescent
// points, so the run's digests stay bit-identical either way.
//
// Call the returned detach before Settle extends the clocks past the
// measured horizon: the final checkpoint (flushed at the horizon inside
// Run) is then the last snapshot the surface serves for this run.
func attachLive(lv *live.Server, c *cluster.Cluster, run string, horizon sim.Time) (detach func()) {
	if lv == nil {
		return func() {}
	}
	lv.SetRun(run, horizon)
	lv.SetClassifier(c.ClassifyFrame)
	c.SetTap(lv.Tap)
	streamer := obs.NewStreamer(lv, c.Pipes()...)
	c.SetCheckpoint(lv.Interval, func(at sim.Time) {
		lv.PublishFabric(c.FabricPortUtil(at))
		lv.PublishPar(c.Group.Stats())
		streamer.Checkpoint(at)
	})
	return func() {
		c.SetCheckpoint(0, nil)
		c.SetTap(nil)
	}
}

// String renders the per-policy table.
func (r ClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster — %d hosts / %d racks / %d containers, PRISM-sync hosts (seed %d)\n",
		r.Hosts, r.Racks, r.Containers, r.Seed)
	fmt.Fprintf(&b, "%-9s %10s %10s %10s %10s %8s %8s %9s %8s %7s %13s %13s\n",
		"placement", "hi p50(µs)", "hi p99(µs)", "lo p50(µs)", "lo p99(µs)",
		"hi recv", "lo recv", "admit-rej", "fab-drop", "util", "metrics", "spans")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %10.1f %10.1f %10.1f %10.1f %8d %8d %9d %8d %3.0f%%/%2.0f%% %13s %13s\n",
			row.Placement,
			row.Hi.P50.Micros(), row.Hi.P99.Micros(),
			row.Lo.P50.Micros(), row.Lo.P99.Micros(),
			row.HiRecv, row.LoRecv, row.AdmitDenied, row.FabricDrops,
			100*row.FabricUtilMax, 100*row.FabricUtilMean,
			row.MetricsSHA[:12], row.SpansSHA[:12])
	}
	return b.String()
}
