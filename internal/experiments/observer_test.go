package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/stats"
	"prism/internal/traffic"
)

// neutralRun is everything a Fig. 9 busy point simulates: both latency
// flows' histograms and delivered sequences, every flow's counts and every
// device's processed count.
type neutralRun struct {
	HiHist, HiKernel, LoHist, LoKernel []stats.CDFPoint
	HiSum, LoSum                       stats.Summary
	HiSeq, LoSeq                       []uint64
	Counts                             string
}

// fig9BusyPoint runs PRISM-sync at the Fig. 9 busy point — 300 kpps of
// background in bursts of 96 — with a prioritized and an ordinary echo
// flow, optionally observed by pipe.
func fig9BusyPoint(pipe *obs.Pipeline) neutralRun {
	p := quickParams()
	var opts []RigOption
	if pipe != nil {
		opts = append(opts, WithObs(pipe))
	}
	r := NewRig(p, prio.ModeSync, opts...)
	var run neutralRun
	echo := func(name string, idx int, port uint16, seq *[]uint64) *traffic.PingPong {
		c := r.Host.AddContainer(name)
		pp := traffic.NewPingPong(r.Eng, r.Host, c, clientSrc(idx), port, p.HighRate)
		pp.Warmup = p.Warmup
		pp.OnSample = func(s uint64, _ sim.Time) { *seq = append(*seq, s) }
		mustNoErr(pp.InstallEcho(p.EchoCost))
		pp.Start(r.Client, 0)
		return pp
	}
	hi := echo("hi-srv", 0, PortHighPrio, &run.HiSeq)
	r.Host.DB.Add(prio.Rule{IP: hi.Target.IP, Port: PortHighPrio})
	lo := echo("lo-srv", 1, PortMemcached, &run.LoSeq)
	bg := r.Host.AddContainer("bg-srv")
	fl := traffic.NewUDPFlood(r.Eng, r.Host, bg, clientSrc(2), PortBackgrnd, p.BGRate)
	fl.Burst, fl.Poisson, fl.JitterFrac = p.BGBurst, false, 0.25
	mustNoErr(fl.InstallSink(p.SinkCost))
	fl.Start(0)
	mustNoErr(r.Run(p))

	run.HiHist, run.HiKernel, run.HiSum = hi.Hist.CDF(), hi.KernelHist.CDF(), hi.Hist.Summarize()
	run.LoHist, run.LoKernel, run.LoSum = lo.Hist.CDF(), lo.KernelHist.CDF(), lo.Hist.Summarize()
	h := r.Host
	run.Counts = fmt.Sprintf("hi %d/%d lo %d/%d flood %d/%d nic %d bridge %d veth %d rx %+v",
		hi.Sent, hi.Received, lo.Sent, lo.Received, fl.Sent, fl.DeliveredCount(),
		h.NIC.Dev.Processed, h.Bridge.Dev.Processed, h.Backlog.Dev.Processed, h.Rx.Stats())
	return run
}

// TestObserverNeutrality: observing a run must not change it. The Fig. 9
// busy point with and without an observability pipeline — whose per-packet
// wait cursor rides on the SKB — simulates identically.
func TestObserverNeutrality(t *testing.T) {
	pipe := obs.NewPipeline("server")
	off, on := fig9BusyPoint(nil), fig9BusyPoint(pipe)
	if off.HiSum.Count == 0 || off.LoSum.Count == 0 || len(off.HiSeq) == 0 {
		t.Fatalf("reference run measured nothing: %+v", off.Counts)
	}
	if pipe.T.Total() == 0 || pipe.M.CounterValue("prism_delivered_total", obs.Labels{}) == 0 {
		t.Fatal("observed run recorded nothing")
	}
	if !reflect.DeepEqual(off, on) {
		t.Errorf("observing changed the simulation:\noff: %s hi %v lo %v\non:  %s hi %v lo %v",
			off.Counts, off.HiSum, off.LoSum, on.Counts, on.HiSum, on.LoSum)
	}
}
