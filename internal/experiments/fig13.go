package experiments

import (
	"fmt"
	"strings"

	"prism/internal/apps/webserver"
	"prism/internal/prio"
	"prism/internal/stats"
	"prism/internal/testbed"
)

// Fig13Row is one (mode, busy?) web-serving measurement.
type Fig13Row struct {
	Mode prio.Mode
	Busy bool
	// KReqs is completed requests per second.
	KReqs   float64
	Latency stats.Summary
}

// Fig13Result reproduces Fig. 13. Paper: on a busy server, PRISM-batch
// cuts web latency ~14% and raises throughput ~15%; PRISM-sync ~22% and
// ~25%. The gains are smaller than the microbenchmarks because TCP and
// application time dominate the request path.
type Fig13Result struct {
	Rows []Fig13Row
	// TCPBGMsgRate is the background message rate used (64 KB messages).
	TCPBGMsgRate float64
}

// Fig13TCPBGRate is the default 64 KB-message background rate. The paper
// quotes "20 Kpps with 64 KB packets"; at this simulator's GRO and cost
// calibration that rate leaves the processing core nearly idle, so the
// default is raised to reach the busy regime (~70-80% of the processing
// core) that the paper's latency and throughput deltas imply. See
// EXPERIMENTS.md.
const Fig13TCPBGRate = 55_000

// Fig13 runs the web benchmark for all three modes, idle and busy.
func Fig13(p Params) Fig13Result {
	res := Fig13Result{TCPBGMsgRate: Fig13TCPBGRate}
	for _, mode := range Modes {
		for _, busy := range []bool{false, true} {
			res.Rows = append(res.Rows, fig13Run(p, mode, busy))
		}
	}
	return res
}

func fig13Run(p Params, mode prio.Mode, busy bool) Fig13Row {
	r := NewRig(p, mode)
	ctr := r.Host.AddContainer("nginx")
	r.Host.DB.Add(prio.Rule{IP: ctr.IP, Port: webserver.Port})

	if _, err := webserver.InstallServer(ctr, webserver.DefaultServerConfig()); err != nil {
		panic(err)
	}
	cfg := webserver.DefaultWrk2Config()
	cfg.Warmup = p.Warmup
	w := webserver.NewWrk2(r.Eng, r.Host, ctr, clientSrc(0), cfg)
	w.Start(r.Client, 0)

	if busy {
		r.start(p, testbed.Flow{Kind: testbed.TCP, Container: "bg-srv", Port: PortTCPStream, Client: 1, Rate: Fig13TCPBGRate})
	}
	mustNoErr(r.Run(p))
	return Fig13Row{
		Mode:    mode,
		Busy:    busy,
		KReqs:   w.ThroughputReqs() / 1e3,
		Latency: w.Hist.Summarize(),
	}
}

// Find returns the row for (mode, busy).
func (r Fig13Result) Find(mode prio.Mode, busy bool) (Fig13Row, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode && row.Busy == busy {
			return row, true
		}
	}
	return Fig13Row{}, false
}

// String renders the table.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — nginx/wrk2 web serving with/without TCP background (%.0f x 64KB msgs/s)\n", r.TCPBGMsgRate)
	fmt.Fprintf(&b, "%-12s %-5s %10s %10s %10s %10s\n",
		"mode", "load", "kreq/s", "min(µs)", "avg(µs)", "p99(µs)")
	for _, row := range r.Rows {
		load := "idle"
		if row.Busy {
			load = "busy"
		}
		fmt.Fprintf(&b, "%-12s %-5s %10.2f %10.1f %10.1f %10.1f\n",
			row.Mode, load, row.KReqs, row.Latency.Min.Micros(),
			row.Latency.Mean.Micros(), row.Latency.P99.Micros())
	}
	return b.String()
}
