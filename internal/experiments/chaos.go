package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"prism/internal/fault"
	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/prio"
	"prism/internal/stats"
	"prism/internal/testbed"
)

// PortLowPrio is the chaos experiment's unprioritized latency flow: same
// workload shape as the PortHighPrio flow, but with no rule in the
// priority database — the pair measures how much of the fault damage each
// policy deflects onto best-effort traffic.
const PortLowPrio = 22222

// ChaosVariants are the policy configurations the chaos driver degrades:
// the vanilla baseline against full PRISM (run-to-completion).
var ChaosVariants = []PolicyVariant{
	{Policy: "vanilla", Mode: prio.ModeVanilla},
	{Policy: "prism", Mode: prio.ModeSync},
}

// ChaosRates builds the fault-rate ladder up to maxRate (0 means 0.4):
// rate 0 — which runs with a nil plane and must be bit-identical to an
// unfaulted build — plus three increasing intensities. A negative maxRate
// yields negative rates, which Args.Validate rejects.
func ChaosRates(maxRate float64) []float64 {
	if maxRate == 0 {
		maxRate = 0.4
	}
	return []float64{0, maxRate / 4, maxRate / 2, maxRate}
}

// ChaosRow is one (policy, fault-rate) measurement point.
type ChaosRow struct {
	Variant   PolicyVariant
	FaultRate float64

	// High and Low summarize the prioritized and best-effort latency
	// flows; HighRecv/LowRecv are their reply counts and BGRecv the
	// background sink's deliveries.
	High     stats.Summary
	Low      stats.Summary
	HighRecv uint64
	LowRecv  uint64
	BGRecv   uint64

	// Faults is everything the plane injected; Shed counts low-priority
	// victims evicted by the overload policy (ring + stage queues);
	// Rescues counts watchdog IRQ re-arms.
	Faults  fault.Counters
	Shed    uint64
	Rescues uint64

	Util float64

	// MetricsSHA / SpansSHA digest the point's full observability streams;
	// the determinism tests compare them across seeds and worker counts.
	MetricsSHA string
	SpansSHA   string
}

// ChaosResult is the chaos experiment: latency degradation per policy as
// the fault rate rises, with priority-aware shedding and the watchdog
// active at every nonzero rate.
type ChaosResult struct {
	Seed uint64
	Rows []ChaosRow
}

// Chaos runs the (ChaosVariants × rates) grid. Every point is an
// independent engine with its own fault plane, so points fan out over
// p.Workers with bit-identical results, and the same seed reproduces the
// same table.
func Chaos(p Params, rates []float64) ChaosResult {
	if len(rates) == 0 {
		rates = ChaosRates(0)
	}
	type point struct {
		v    PolicyVariant
		rate float64
	}
	grid := make([]point, 0, len(ChaosVariants)*len(rates))
	for _, v := range ChaosVariants {
		for _, rate := range rates {
			grid = append(grid, point{v: v, rate: rate})
		}
	}
	res := ChaosResult{Seed: p.Seed, Rows: make([]ChaosRow, len(grid))}
	par.ForEach(len(grid), p.Workers, func(i int) {
		res.Rows[i] = chaosPoint(p, grid[i].v, grid[i].rate)
	})
	return res
}

// chaosPoint measures one policy at one fault rate: a prioritized and an
// unprioritized latency flow compete with a background flood while the
// plane injects every fault class; the run is then drained to idle and
// the conservation/leak invariants are enforced.
func chaosPoint(p Params, v PolicyVariant, rate float64) ChaosRow {
	label := fmt.Sprintf("chaos-%s-r%d", v.Label(), int(rate*1000))
	pipe := obs.NewPipeline(label)
	opts := []RigOption{WithObs(pipe), WithPolicy(v.Policy)}
	if rate > 0 {
		// Rate 0 runs with no plane at all (and no shedding), so its
		// datapath is bit-identical to an unfaulted build — the golden
		// fixtures prove the hooks are free.
		opts = append(opts, WithFault(&fault.Config{Seed: p.Seed, Rate: rate}), WithShed())
	}
	r := NewRig(p, v.Mode, opts...)

	// Chaos grid points fan out over p.Workers and publish concurrently
	// into one live surface, when one is listening: the server is
	// thread-safe and the streams interleave (last writer labels the run).
	detach := AttachTestbed(p.Live, r.Testbed, label, p.Warmup+p.Duration, chaosClassify)
	srcs := r.start(p,
		testbed.Flow{Kind: testbed.Echo, Container: "hi-srv", Hi: true, Port: PortHighPrio, Rate: p.HighRate},
		testbed.Flow{Kind: testbed.Echo, Container: "lo-srv", Port: PortLowPrio, Client: 1, Rate: p.HighRate},
		bgFlood(p, "bg-srv", 2, p.BGRate))
	mustNoErr(r.Run(p))
	util := r.Utilization()
	mustNoErr(r.Settle())
	detach()

	hi, lo := srcs[0].PP, srcs[1].PP
	row := ChaosRow{
		Variant:   v,
		FaultRate: rate,
		High:      hi.Hist.Summarize(),
		Low:       lo.Hist.Summarize(),
		HighRecv:  hi.Received,
		LowRecv:   lo.Received,
		BGRecv:    srcs[2].Delivered().Count(),
		Faults:    r.Plane.Stats(),
		Shed:      r.Shed(),
		Util:      util,
	}
	row.Rescues = row.Faults.WatchdogRescues
	// Not obs.Digests: that re-sorts the stream by MergeEvents, and the
	// committed digest hashes this single stream in recording order.
	row.MetricsSHA = digest([]byte(obs.PrometheusText(pipe.M)))
	spans, err := json.Marshal(pipe.T.Events())
	mustNoErr(err)
	row.SpansSHA = digest(spans)
	return row
}

// chaosClassify resolves a chaos-rig wire frame to its workload for the
// live capture selectors: the rig's three containers listen on the
// experiment's well-known ports.
var chaosClassify = PortClassifier(map[uint16]PortWorkload{
	PortHighPrio: {Name: "hi-srv", Hi: true},
	PortLowPrio:  {Name: "lo-srv"},
	PortBackgrnd: {Name: "bg-srv"},
})

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// String renders the degradation table: per policy, latency and loss as
// the fault rate rises, with each row's p99 also shown relative to the
// same policy's fault-free baseline.
func (r ChaosResult) String() string {
	base := map[PolicyVariant]stats.Summary{}
	for _, row := range r.Rows {
		if row.FaultRate == 0 {
			base[row.Variant] = row.High
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos — latency degradation under injected faults (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%-11s %5s %10s %10s %8s %10s %10s %7s %7s %8s %8s\n",
		"policy", "rate", "hi p50(µs)", "hi p99(µs)", "hi p99x",
		"lo p50(µs)", "lo p99(µs)", "shed", "rescue", "injected", "util")
	for _, row := range r.Rows {
		p99x := "-"
		if b0, ok := base[row.Variant]; ok && b0.P99 > 0 && row.FaultRate > 0 {
			p99x = fmt.Sprintf("%.2fx", float64(row.High.P99)/float64(b0.P99))
		}
		fmt.Fprintf(&b, "%-11s %5.2f %10.1f %10.1f %8s %10.1f %10.1f %7d %7d %8d %7.0f%%\n",
			row.Variant.Label(), row.FaultRate,
			row.High.P50.Micros(), row.High.P99.Micros(), p99x,
			row.Low.P50.Micros(), row.Low.P99.Micros(),
			row.Shed, row.Rescues, row.Faults.Injected(), 100*row.Util)
	}
	return b.String()
}
