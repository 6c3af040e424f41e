package experiments

import (
	"fmt"
	"strings"

	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
)

// BatchPoint is one (batch size) measurement of the §II-A1/§III-B
// throughput↔latency tradeoff that motivates PRISM: growing the NAPI
// weight amortizes per-poll overheads (throughput up) but multiplies the
// queueing a packet suffers at every stage (latency up).
type BatchPoint struct {
	BatchSize int
	// BusyMean is the high-priority flow's mean latency under background
	// load in vanilla mode.
	BusyMean sim.Time
	// MaxKpps is the vanilla single-core delivery rate under overload.
	MaxKpps float64
}

// AblationBatchResult sweeps the NAPI batch weight.
type AblationBatchResult struct {
	Points []BatchPoint
}

// AblationBatch runs the sweep. Linux's default weight is 64; the sweep
// shows both smaller (latency-friendlier, slower) and larger settings.
func AblationBatch(p Params, sizes []int) AblationBatchResult {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128}
	}
	var res AblationBatchResult
	for _, size := range sizes {
		kpps := maxThroughput(p, prio.ModeVanilla, false, WithBatchSize(size))
		// Measure latency at equal *relative* load (75% of this batch
		// size's capacity); at a fixed absolute rate, small batches would
		// just run hotter and the utilization effect would mask the
		// batching-delay effect the sweep is about.
		pl := p
		pl.BGRate = kpps * 1e3 * 0.75
		res.Points = append(res.Points, BatchPoint{
			BatchSize: size,
			BusyMean:  batchLatency(pl, size),
			MaxKpps:   kpps,
		})
	}
	return res
}

func batchLatency(p Params, batch int) sim.Time {
	r := NewRig(p, prio.ModeVanilla, WithBatchSize(batch))
	bg := bgFlood(p, "bg-srv", 1, p.BGRate)
	bg.JitterFrac = nil
	pp := r.start(p, testbed.Flow{Kind: testbed.Echo, Container: "hi-srv", Port: PortHighPrio, Rate: p.HighRate}, bg)[0].PP
	mustNoErr(r.Run(p))
	return pp.Hist.Mean()
}

// String renders the sweep.
func (r AblationBatchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — NAPI batch weight (vanilla): throughput vs latency tradeoff\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "batch", "tput(kpps)", "busy-mean(µs)")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-10d %12.0f %12.1f\n", pt.BatchSize, pt.MaxKpps, pt.BusyMean.Micros())
	}
	return b.String()
}
