package experiments

import (
	"fmt"
	"strings"

	"prism/internal/cluster"
	"prism/internal/obs"
	"prism/internal/prio"
	rec "prism/internal/recover"
	"prism/internal/sim"
	"prism/internal/stats"
)

// FailoverConfig sizes the kill-and-recover experiment: one host is
// fail-stopped mid-run and the recovery controller must detect it,
// migrate its containers and swap the routing epoch, under each
// placement policy in turn.
type FailoverConfig struct {
	Hosts      int
	Containers int
	Placements []cluster.Placement

	// CrashHost is the victim; CrashAfter the crash offset into the
	// measured window; Downtime how long the host stays dark before its
	// (cordoned, never failed-back) restart.
	CrashHost  int
	CrashAfter sim.Time
	Downtime   sim.Time
	// RecoverWindow bounds the "during" measurement phase: latency
	// samples land in before/during/after buckets split at the crash
	// time and crash+RecoverWindow. Fixed boundaries keep the phase
	// histograms a pure function of the timeline, so they golden.
	RecoverWindow sim.Time
}

// DefaultFailoverConfig is the fixture point: 8 hosts, 200 containers,
// host 0 killed 10ms into the measured window. Host 0 is the victim
// because every placement policy populates it — pack stacks the whole
// workload there, so its crash is also the worst case.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Hosts:         8,
		Containers:    200,
		Placements:    cluster.Placements,
		CrashHost:     0,
		CrashAfter:    10 * sim.Millisecond,
		Downtime:      8 * sim.Millisecond,
		RecoverWindow: 10 * sim.Millisecond,
	}
}

func (fc FailoverConfig) withDefaults() FailoverConfig {
	def := DefaultFailoverConfig()
	if fc.Hosts <= 0 {
		fc.Hosts = def.Hosts
	}
	if fc.Containers <= 0 {
		fc.Containers = def.Containers
	}
	if len(fc.Placements) == 0 {
		fc.Placements = def.Placements
	}
	if fc.CrashHost < 0 || fc.CrashHost >= fc.Hosts {
		fc.CrashHost = def.CrashHost
	}
	if fc.CrashAfter <= 0 {
		fc.CrashAfter = def.CrashAfter
	}
	if fc.Downtime <= 0 {
		fc.Downtime = def.Downtime
	}
	if fc.RecoverWindow <= 0 {
		fc.RecoverWindow = def.RecoverWindow
	}
	return fc
}

// FailoverRow is one placement policy's recovery timeline: the echo
// latency split into the three phases plus the controller's counters.
type FailoverRow struct {
	Placement string

	// Hi/Lo phase summaries: Before ends at the crash, During covers
	// [crash, crash+RecoverWindow), After is the recovered steady state.
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
// placement policy, with one scripted host crash mid-run. Bit-identical
// for any worker count.
func Failover(p Params, fc FailoverConfig) FailoverResult {
	fc = fc.withDefaults()
	res := FailoverResult{
		Seed: p.Seed, Hosts: fc.Hosts, Containers: fc.Containers,
		CrashHost:    fc.CrashHost,
		CrashAt:      p.Warmup + fc.CrashAfter,
		RecoverBound: p.Warmup + fc.CrashAfter + fc.RecoverWindow,
	}
	for _, pol := range fc.Placements {
		row, racks := failoverPoint(p, fc, pol)
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

func failoverPoint(p Params, fc FailoverConfig, pol cluster.Placement) (FailoverRow, int) {
	crashAt := p.Warmup + fc.CrashAfter
	recovered := crashAt + fc.RecoverWindow
	cfg := cluster.Config{
		Hosts:     fc.Hosts,
		Placement: pol,
		Seed:      p.Seed,
		Host:      BaseSpec(p, prio.ModeSync),
		Specs:     ClusterSpecs(p, fc.Hosts, fc.Containers),
		Admission: &cluster.Admission{Rate: 55_000, Burst: 96, HiReserve: 0.25},
		Fabric:    cluster.FabricConfig{Racks: 2},
		Warmup:    p.Warmup,
		EchoCost:  p.EchoCost,
		SinkCost:  p.SinkCost,
		Recovery: &cluster.RecoveryConfig{
			Script: rec.Script{{
				Kind: rec.HostCrash, Host: fc.CrashHost,
				At: crashAt, Until: crashAt + fc.Downtime,
			}},
			RetryMax:         3,
			DegradeAdmission: true,
		},
	}
	c, err := cluster.New(cfg)
	mustNoErr(err)

	// The live surface lets an operator watch the crash and recovery
	// (fabric load shifting, /capture of the migrated flows) without
	// perturbing the digests.
	detach := attachLive(p.Live, c, "failover/"+pol.String(), cfg.Warmup+p.Duration)

	// Per-flow three-phase histograms, fed from the echo sample hook.
	// The hook runs in event context on the flow's ingress shard, so the
	// ingress engine's clock is the sample time and every write is
	// shard-local — no synchronization needed, merged only after Run.
	type phased struct {
		hi bool
		h  [3]*stats.Histogram
	}
	var phasedFlows []*phased
	for _, f := range c.Flows {
		if f.PP == nil {
			continue
		}
		ph := &phased{hi: f.Spec.Hi}
		for i := range ph.h {
			ph.h[i] = stats.NewHistogram()
		}
		eng := c.Nodes[f.Ingress].Shard.Eng
		pp := f.PP
		pp.OnSample = func(seq uint64, lat sim.Time) {
			ph.h[phaseIndex(eng.Now(), crashAt, recovered)].Record(lat)
		}
		phasedFlows = append(phasedFlows, ph)
	}

	mustNoErr(c.Run(p.Duration, p.Workers))

	row := FailoverRow{Placement: pol.String(), Windows: c.Group.Windows}
	var hi, lo [3][]*stats.Histogram
	for _, ph := range phasedFlows {
		for i := range ph.h {
			if ph.hi {
				hi[i] = append(hi[i], ph.h[i])
			} else {
				lo[i] = append(lo[i], ph.h[i])
			}
		}
	}
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

	row.MetricsSHA, row.SpansSHA, err = obs.Digests(c.Pipes()...)
	mustNoErr(err)

	detach()

	// Settle drains in-flight frames (the migrated flows keep serving),
	// then the strict cluster check must close every ledger — including
	// the crash, epoch-drop and per-migration conservation terms.
	mustNoErr(c.Settle(0, p.Workers))
	mustNoErr(c.CheckInvariants(true))
	return row, c.Cfg.Fabric.Racks
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
