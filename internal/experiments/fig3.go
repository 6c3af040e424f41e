package experiments

import (
	"fmt"
	"strings"

	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/stats"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// Fig3Result reproduces Fig. 3: the latency distribution of a
// latency-sensitive overlay flow on the *vanilla* kernel, with and without
// low-priority background traffic. The paper reports the busy median
// ~400% above idle and the busy p99 ~450% above idle.
type Fig3Result struct {
	Idle stats.Summary
	Busy stats.Summary

	IdleCDF []stats.CDFPoint
	BusyCDF []stats.CDFPoint

	// MedianRatio and P99Ratio are busy/idle.
	MedianRatio float64
	P99Ratio    float64
	// BusyUtil is the processing-core utilization under background load.
	BusyUtil float64
}

// Fig3 runs the experiment.
func Fig3(p Params) Fig3Result {
	idle, _, _ := latencyUnderLoad(p, prio.ModeVanilla, 0, true)
	busy, _, util := latencyUnderLoad(p, prio.ModeVanilla, p.BGRate, true)
	res := Fig3Result{
		Idle:     idle.Summarize(),
		Busy:     busy.Summarize(),
		IdleCDF:  idle.CDF(),
		BusyCDF:  busy.CDF(),
		BusyUtil: util,
	}
	if res.Idle.P50 > 0 {
		res.MedianRatio = float64(res.Busy.P50) / float64(res.Idle.P50)
	}
	if res.Idle.P99 > 0 {
		res.P99Ratio = float64(res.Busy.P99) / float64(res.Idle.P99)
	}
	return res
}

// latencyUnderLoad is the shared Fig. 3/9/10/11 workload (also Stages,
// Policies and ExtDriver): a 1 kpps high-priority
// ping-pong flow to one container, optionally competing with a bgRate
// background flood to a second container, all processed on one core.
// overlayPath selects container overlay vs host network; opts tweak the
// testbed (e.g. WithPolicy for the poll-policy ablation).
// It returns the latency histogram, the ping-pong flow, and the measured
// processing-core utilization.
func latencyUnderLoad(p Params, mode prio.Mode, bgRate float64, overlayPath bool, opts ...RigOption) (*stats.Histogram, *traffic.PingPong, float64) {
	r := NewRig(p, mode, opts...)
	hi, bg := "hi-srv", "bg-srv"
	if !overlayPath {
		hi, bg = "", ""
	}
	flows := []testbed.Flow{{Kind: testbed.Echo, Container: hi, Hi: true, Port: PortHighPrio, Rate: p.HighRate}}
	if bgRate > 0 {
		flows = append(flows, bgFlood(p, bg, 1, bgRate))
	}
	pp := r.start(p, flows...)[0].PP
	mustNoErr(r.Run(p))
	return pp.Hist, pp, r.Utilization()
}

// clientSrc returns the idx-th client-side container endpoint; source
// ports are disjoint per flow so the client can demux replies.
func clientSrc(idx int) overlay.RemoteEndpoint {
	return overlay.ClientContainer(idx, uint16(40000+idx))
}

func mustNoErr(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiments: rig construction failed: %v", err))
	}
}

// String renders the result as a table plus the headline ratios.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — vanilla overlay latency, idle vs busy server\n")
	fmt.Fprintf(&b, "  idle: %s\n", r.Idle)
	fmt.Fprintf(&b, "  busy: %s  (proc core %.0f%% busy)\n", r.Busy, 100*r.BusyUtil)
	fmt.Fprintf(&b, "  busy/idle median = %.1fx (paper ~5x), p99 = %.1fx (paper ~5.5x)\n",
		r.MedianRatio, r.P99Ratio)
	return b.String()
}
