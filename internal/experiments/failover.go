package experiments

import (
	"fmt"
	"strings"

	"prism/internal/cluster"
	"prism/internal/sim"
	"prism/internal/stats"
)

// The failover timeline. Host 0 is the victim because every placement
// policy populates it — pack stacks the whole workload there, so its
// crash is also the worst case. It is killed crashAfter into the
// measured window and stays dark for downtime before its (cordoned,
// never failed-back) restart. recoverWindow bounds the "during"
// measurement phase: latency samples land in before/during/after
// buckets split at the crash time and crash+recoverWindow. Fixed
// boundaries keep the phase histograms a pure function of the timeline,
// so they golden.
const (
	crashHost     = 0
	crashAfter    = 10 * sim.Millisecond
	downtime      = 8 * sim.Millisecond
	recoverWindow = 10 * sim.Millisecond
)

// The failover experiment's default scale, the fixture point.
const failoverHosts, failoverContainers = 8, 200

// checkFailoverScale rejects a failover size the cluster cannot hold, or
// whose scripted crash leaves the orphaned containers no room: recovery
// cordons the crashed host for good, so the other hosts must hold every
// container (Args.Validate runs it).
func checkFailoverScale(a Args) error {
	hosts, containers := a.scale(failoverHosts, failoverContainers)
	if err := cluster.CheckScale(hosts, cluster.DefaultHostCap, containers); err != nil {
		return fmt.Errorf("containers: %w", err)
	}
	if err := cluster.CheckScale(hosts-1, cluster.DefaultHostCap, containers); err != nil {
		return fmt.Errorf("hosts: crashing host %d leaves %d of %d hosts for %d containers: %w",
			crashHost, hosts-1, hosts, containers, err)
	}
	return nil
}

// FailoverRow is one placement policy's recovery timeline: the echo
// latency split into the three phases plus the controller's counters.
type FailoverRow struct {
	Placement string

	// Hi/Lo phase summaries: Before ends at the crash, During covers
	// [crash, crash+recoverWindow), After is the recovered steady state.
	HiBefore, HiDuring, HiAfter stats.Summary
	LoBefore, LoDuring, LoAfter stats.Summary

	// Detections / DetectLat: suspected-host count and the first
	// detection's virtual-time latency (suspect - crash).
	Detections int
	DetectLat  sim.Time
	// Migrated counts re-placed containers; SnapVersion the routing
	// epoch live at the end (2 = exactly one swap).
	Migrated    int
	SnapVersion int

	// CrashRx / CrashTx count frames absorbed at the dead host's wire;
	// EpochDrops frames that arrived under a stale routing epoch;
	// AdmitRetries admission retries scheduled while degraded.
	CrashRx, CrashTx uint64
	EpochDrops       uint64
	AdmitRetries     uint64

	Windows uint64

	MetricsSHA string
	SpansSHA   string
}

// FailoverResult is the failover experiment across placement policies.
type FailoverResult struct {
	Seed       uint64
	Hosts      int
	Containers int
	Racks      int
	CrashHost  int
	// CrashAt / RecoverBound are the absolute phase boundaries.
	CrashAt      sim.Time
	RecoverBound sim.Time
	Rows         []FailoverRow
}

// Failover runs the kill-and-recover grid: the same workload under each
// placement policy of a, with one scripted host crash mid-run: the
// recovery controller must detect it, migrate the host's containers and
// swap the routing epoch. a.Hosts and a.Containers default to
// failoverHosts and failoverContainers. Bit-identical for any worker
// count.
func Failover(p Params, a Args) FailoverResult {
	hosts, containers := a.scale(failoverHosts, failoverContainers)
	res := FailoverResult{
		Seed: p.Seed, Hosts: hosts, Containers: containers,
		CrashHost:    crashHost,
		CrashAt:      p.Warmup + crashAfter,
		RecoverBound: p.Warmup + crashAfter + recoverWindow,
	}
	for _, pol := range a.placements() {
		row, racks := failoverPoint(p, hosts, containers, pol)
		res.Racks = racks
		res.Rows = append(res.Rows, row)
	}
	return res
}

// phaseIndex buckets a sample time against the two phase boundaries.
func phaseIndex(at, crash, recovered sim.Time) int {
	switch {
	case at < crash:
		return 0
	case at < recovered:
		return 1
	default:
		return 2
	}
}

func failoverPoint(p Params, hosts, containers int, pol cluster.Placement) (FailoverRow, int) {
	crashAt := p.Warmup + crashAfter
	recovered := crashAt + recoverWindow
	cfg := clusterConfig(p, hosts, containers, pol)
	cfg.Fabric = cluster.FabricConfig{Racks: 2}
	cfg.Recovery = &cluster.RecoveryConfig{
		Script: cluster.Script{{
			Kind: cluster.HostCrash, Host: crashHost,
			At: crashAt, Until: crashAt + downtime,
		}},
		RetryMax:         3,
		DegradeAdmission: true,
	}

	// Per-flow three-phase histograms, fed from the echo sample hook.
	// The hook runs in event context on the flow's ingress shard, so the
	// ingress engine's clock is the sample time and every write is
	// shard-local — no synchronization needed, merged only after Run.
	var hi, lo [3][]*stats.Histogram
	prepare := func(c *cluster.Cluster) {
		for _, f := range c.Flows {
			if f.PP == nil {
				continue
			}
			var h [3]*stats.Histogram
			for i := range h {
				h[i] = stats.NewHistogram()
				if f.Spec.Hi {
					hi[i] = append(hi[i], h[i])
				} else {
					lo[i] = append(lo[i], h[i])
				}
			}
			eng := c.Nodes[f.Ingress].Shard.Eng
			f.PP.OnSample = func(seq uint64, lat sim.Time) {
				h[phaseIndex(eng.Now(), crashAt, recovered)].Record(lat)
			}
		}
	}

	row := FailoverRow{Placement: pol.String()}
	var racks int
	measure := func(c *cluster.Cluster) {
		row.HiBefore = stats.MergeHistograms(hi[0]...).Summarize()
		row.HiDuring = stats.MergeHistograms(hi[1]...).Summarize()
		row.HiAfter = stats.MergeHistograms(hi[2]...).Summarize()
		row.LoBefore = stats.MergeHistograms(lo[0]...).Summarize()
		row.LoDuring = stats.MergeHistograms(lo[1]...).Summarize()
		row.LoAfter = stats.MergeHistograms(lo[2]...).Summarize()
		dets := c.Detections()
		row.Detections = len(dets)
		if len(dets) > 0 {
			row.DetectLat = dets[0].SuspectAt - dets[0].DownAt
		}
		row.Migrated = len(c.Migrations())
		row.SnapVersion = c.Snapshot().Version
		row.CrashRx, row.CrashTx = c.CrashDrops()
		row.EpochDrops = c.EpochDrops()
		row.AdmitRetries = c.RecoveryRetries()
		racks = c.Cfg.Fabric.Racks
	}

	// The live surface lets an operator watch the crash and recovery
	// (fabric load shifting, /capture of the migrated flows) without
	// perturbing the digests. Settle drains in-flight frames (the
	// migrated flows keep serving), then the strict cluster check must
	// close every ledger — including the crash, epoch-drop and
	// per-migration conservation terms.
	cr, err := RunCluster(p, cfg, "failover/"+pol.String(), true, prepare, measure)
	mustNoErr(err)
	row.Windows, row.MetricsSHA, row.SpansSHA = cr.Windows, cr.MetricsSHA, cr.SpansSHA
	return row, racks
}

// String renders the recovery timeline per placement.
func (r FailoverResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failover — %d hosts / %d racks / %d containers; host%02d killed at %.1fms (seed %d)\n",
		r.Hosts, r.Racks, r.Containers, r.CrashHost, float64(r.CrashAt)/1e6, r.Seed)
	fmt.Fprintf(&b, "%-9s %11s %11s %11s %11s %8s %8s %5s %7s %9s %9s %7s\n",
		"placement", "hi-pre p99", "hi-mid p99", "hi-post p99", "lo-post p99",
		"detect", "migrated", "epoch", "crash-rx", "epoch-drop", "retries", "windows")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %10.1fµ %10.1fµ %10.1fµ %10.1fµ %7.2fm %8d %5d %7d %9d %9d %7d\n",
			row.Placement,
			row.HiBefore.P99.Micros(), row.HiDuring.P99.Micros(), row.HiAfter.P99.Micros(),
			row.LoAfter.P99.Micros(),
			float64(row.DetectLat)/1e6,
			row.Migrated, row.SnapVersion, row.CrashRx, row.EpochDrops,
			row.AdmitRetries, row.Windows)
	}
	return b.String()
}
