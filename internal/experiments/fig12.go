package experiments

import (
	"fmt"
	"strings"

	"prism/internal/apps/memcached"
	"prism/internal/prio"
	"prism/internal/stats"
	"prism/internal/testbed"
)

// Fig12Row is one (mode, busy?) memcached measurement.
type Fig12Row struct {
	Mode prio.Mode
	Busy bool
	// KOps is completed operations per second (closed loop).
	KOps float64
	// Latency is the full round-trip distribution memaslap reports.
	Latency  stats.Summary
	Timeouts uint64
}

// Fig12Result reproduces Fig. 12. Paper: on a busy server, vanilla loses
// ~80% throughput and average latency grows >5x; PRISM(-sync) roughly
// doubles vanilla's busy throughput and cuts min/avg/tail latency by
// ~66%/47%/27%.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 runs memcached/memaslap idle and busy for vanilla and PRISM-sync
// (the two configurations the paper compares).
func Fig12(p Params) Fig12Result {
	var res Fig12Result
	for _, mode := range []prio.Mode{prio.ModeVanilla, prio.ModeSync} {
		for _, busy := range []bool{false, true} {
			res.Rows = append(res.Rows, fig12Run(p, mode, busy))
		}
	}
	return res
}

func fig12Run(p Params, mode prio.Mode, busy bool) Fig12Row {
	r := NewRig(p, mode)
	ctr := r.Host.AddContainer("memcached")
	r.Host.DB.Add(prio.Rule{IP: ctr.IP, Port: memcached.Port})

	if _, err := memcached.InstallServer(ctr, memcached.DefaultServerConfig()); err != nil {
		panic(err)
	}
	cfg := memcached.DefaultMemaslapConfig()
	cfg.Warmup = p.Warmup
	ms := memcached.NewMemaslap(r.Eng, r.Host, ctr, clientSrc(0), cfg)
	ms.Start(r.Client, 0)

	if busy {
		r.start(p, testbed.Flow{Kind: testbed.Flood, Container: "bg-srv", Port: PortBackgrnd, Client: 1, Rate: p.BGRate})
	}
	mustNoErr(r.Run(p))
	return Fig12Row{
		Mode:     mode,
		Busy:     busy,
		KOps:     ms.ThroughputOps() / 1e3,
		Latency:  ms.Hist.Summarize(),
		Timeouts: ms.Timeouts,
	}
}

// Find returns the row for (mode, busy).
func (r Fig12Result) Find(mode prio.Mode, busy bool) (Fig12Row, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode && row.Busy == busy {
			return row, true
		}
	}
	return Fig12Row{}, false
}

// String renders the table.
func (r Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 — memcached (memaslap closed loop) with/without background\n")
	fmt.Fprintf(&b, "%-12s %-5s %10s %10s %10s %10s %9s\n",
		"mode", "load", "kops/s", "min(µs)", "avg(µs)", "p99(µs)", "timeouts")
	for _, row := range r.Rows {
		load := "idle"
		if row.Busy {
			load = "busy"
		}
		fmt.Fprintf(&b, "%-12s %-5s %10.1f %10.1f %10.1f %10.1f %9d\n",
			row.Mode, load, row.KOps, row.Latency.Min.Micros(),
			row.Latency.Mean.Micros(), row.Latency.P99.Micros(), row.Timeouts)
	}
	return b.String()
}
