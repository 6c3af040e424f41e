package experiments

import (
	"fmt"
	"strings"

	"prism/internal/prio"
	"prism/internal/stats"
	"prism/internal/testbed"
)

// Fig8Row is one mode's latency and single-core throughput without
// background traffic. The paper's anchors: Vanilla and PRISM-batch sustain
// ~400 kpps; PRISM-sync ~300 kpps; PRISM-sync cuts per-packet latency
// (median and tail) by ~50% versus Vanilla, with PRISM-batch in between.
type Fig8Row struct {
	Mode    prio.Mode
	Latency stats.Summary
	// MaxKpps is the sustained single-core delivery rate under overload.
	MaxKpps float64
	// OfferedUtil is the processing-core utilization during the latency
	// measurement.
	OfferedUtil float64
}

// Fig8Result holds all three rows.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 runs the streamlined-processing microbenchmark.
func Fig8(p Params) Fig8Result {
	var res Fig8Result
	for _, mode := range Modes {
		lat, util := fig8Latency(p, mode)
		res.Rows = append(res.Rows, Fig8Row{
			Mode:        mode,
			Latency:     lat,
			MaxKpps:     maxThroughput(p, mode, true),
			OfferedUtil: util,
		})
	}
	return res
}

// fig8Latency measures the sockperf under-load flow at p.LoadRate with the
// flow marked high-priority (in PRISM modes).
func fig8Latency(p Params, mode prio.Mode) (stats.Summary, float64) {
	r := NewRig(p, mode)
	pp := r.start(p, testbed.Flow{Kind: testbed.Echo, Container: "srv", Hi: true, Port: PortHighPrio, Rate: p.LoadRate})[0].PP
	mustNoErr(r.Run(p))
	return pp.Hist.Summarize(), r.Utilization()
}

// maxThroughput overloads the server (2x vanilla capacity) with a one-way
// flood of small packets and reports the delivered rate. Fig. 8 marks
// the flood high-priority (hi), so PRISM's sync path is exercised.
func maxThroughput(p Params, mode prio.Mode, hi bool, opts ...RigOption) float64 {
	r := NewRig(p, mode, opts...)
	fl := r.start(p, testbed.Flow{Kind: testbed.Flood, Container: "srv", Hi: hi, Port: PortBackgrnd, Client: 1, Rate: 900_000})[0]
	mustNoErr(r.Run(p))
	return fl.Delivered().Kpps(r.Eng.Now())
}

// String renders the table.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — latency & single-core throughput, no background\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %12s %6s\n", "mode", "p50(µs)", "mean(µs)", "p99(µs)", "tput(kpps)", "util")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f %12.0f %5.0f%%\n",
			row.Mode, row.Latency.P50.Micros(), row.Latency.Mean.Micros(),
			row.Latency.P99.Micros(), row.MaxKpps, 100*row.OfferedUtil)
	}
	return b.String()
}
