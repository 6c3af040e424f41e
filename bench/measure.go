package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"prism/internal/obs"
	"prism/internal/sim"
	"prism/internal/softirq"
	"prism/internal/stats"
)

// counts are a rep's deterministic outputs, read after the run through
// public counters. Every rep of a workload at one seed yields the same
// counts, so any one rep serves for the count-based metrics.
type counts struct {
	// dmad is Σ nic.NIC.DMAd over every host and RX queue: frames the NICs
	// actually placed in their rings.
	dmad, irqs, ringDrops uint64
	softirq               softirq.Stats
	// events is Σ Engine.Executed; shardEvents the per-shard split of a
	// sharded run, switchEvents the fabric switches' share of it.
	events       uint64
	shardEvents  []uint64
	switchEvents uint64
	windows      uint64
	obsEvents    uint64
	obsHists     int
	echoes       int
	// Cluster fabric and admission counters; offered counts the frames
	// the generators emitted toward the fabric.
	fabricRx, fabricDrops, admitDenied, offered uint64
	hiP99                                       sim.Time
	horizon                                     sim.Time
}

func (in *instance) counts() counts {
	c := counts{echoes: len(in.echoes), horizon: in.horizon}
	for _, h := range in.hosts {
		for q, n := range h.NICs {
			c.dmad += n.DMAd
			c.irqs += n.IRQs
			c.ringDrops += n.Dev.LowQ.Dropped
			s := h.Rxs[q].Stats()
			c.softirq.SoftirqRuns += s.SoftirqRuns
			c.softirq.Iterations += s.Iterations
			c.softirq.Packets += s.Packets
			c.softirq.Delivered += s.Delivered
			c.softirq.Dropped += s.Dropped
			c.softirq.Shed += s.Shed
		}
	}
	for _, e := range in.engines {
		c.events += e.Executed
	}
	for _, p := range in.pipes {
		c.obsEvents += p.T.Total()
	}
	if in.group != nil {
		c.windows = in.group.Windows
		for _, s := range in.group.Shards() {
			c.shardEvents = append(c.shardEvents, s.Eng.Executed)
		}
	}
	if cl := in.cl; cl != nil {
		for _, sw := range cl.Tors {
			c.switchEvents += sw.Shard.Eng.Executed
			c.fabricRx += sw.RxFrames
		}
		if cl.Spine != nil {
			c.switchEvents += cl.Spine.Shard.Eng.Executed
			c.fabricRx += cl.Spine.RxFrames
		}
		c.fabricDrops, _ = cl.FabricDrops()
		c.admitDenied = cl.AdmissionDenied()
		for _, pp := range in.echoes {
			c.offered += pp.Sent
		}
		for _, f := range in.floods {
			c.offered += f.Sent
		}
	}
	c.hiP99 = in.hiHist().P99()
	return c
}

func (in *instance) hiHist() *stats.Histogram {
	hs := make([]*stats.Histogram, len(in.hi))
	for i, pp := range in.hi {
		hs[i] = pp.Hist
	}
	return stats.MergeHistograms(hs...)
}

// digest fingerprints a rep's simulated outputs. Core covers what the
// simulation computed: the high-priority latency summary and CDF, every
// flow's sent/received counts, every device's Processed count and every
// softirq engine's Stats. Obs covers the observability outputs: each
// pipeline's Prometheus text and retained span stream, in shard order.
type digest struct {
	Core string `json:"core"`
	Obs  string `json:"obs,omitempty"`
}

func (in *instance) digest() (d digest, obsHists int) {
	h := sha256.New()
	writeHist(h, "hi", in.hiHist())
	for i, pp := range in.echoes {
		fmt.Fprintf(h, "echo %d sent=%d recv=%d served=%d\n", i, pp.Sent, pp.Received, pp.Served())
	}
	for i, f := range in.floods {
		fmt.Fprintf(h, "flood %d sent=%d delivered=%d\n", i, f.Sent, f.DeliveredCount())
	}
	for i, st := range in.streams {
		fmt.Fprintf(h, "stream %d sent=%d delivered=%d\n", i, st.SentPkts, st.Delivered.Count())
	}
	for hi, host := range in.hosts {
		for q, n := range host.NICs {
			fmt.Fprintf(h, "host %d q%d %s=%d %s=%d %s=%d dma=%d irqs=%d merged=%d %+v\n", hi, q,
				n.Dev.Name, n.Dev.Processed,
				host.BridgeCells[q].Dev.Name, host.BridgeCells[q].Dev.Processed,
				host.Backlogs[q].Dev.Name, host.Backlogs[q].Dev.Processed,
				n.DMAd, n.IRQs, n.Merged, host.Rxs[q].Stats())
		}
	}
	if cl := in.cl; cl != nil {
		drops, shed := cl.FabricDrops()
		fmt.Fprintf(h, "fabric drops=%d shed=%d admit-denied=%d\n", drops, shed, cl.AdmissionDenied())
	}
	d.Core = sum(h)
	if len(in.pipes) == 0 {
		return d, 0
	}
	h.Reset()
	var buf []byte
	for _, p := range in.pipes {
		fmt.Fprintf(h, "pipe %s\n", p.Shard)
		if err := obs.WritePrometheus(h, p.M); err != nil {
			panic(err) // a hash never fails a write
		}
		for _, ev := range p.T.Events() {
			buf = appendEvent(buf[:0], ev)
			h.Write(buf)
		}
		p.M.EachHistogram(func(string, obs.Labels, *obs.HistogramMetric) { obsHists++ })
	}
	d.Obs = sum(h)
	return d, obsHists
}

// appendEvent encodes every field of a span-stream event; a binary
// encoding keeps digesting a full tracer ring cheap.
func appendEvent(b []byte, ev obs.Event) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, ev.Seq)
	b = append(b, byte(ev.Kind))
	b = append(append(b, ev.Stage...), 0)
	b = append(append(b, ev.Device...), 0)
	b = le.AppendUint64(b, ev.Pkt)
	b = le.AppendUint64(b, uint64(ev.Priority))
	b = le.AppendUint64(b, uint64(ev.Start))
	return le.AppendUint64(b, uint64(ev.End))
}

func writeHist(w io.Writer, name string, hist *stats.Histogram) {
	s := hist.Summarize()
	fmt.Fprintf(w, "%s n=%d min=%d mean=%d p50=%d p90=%d p99=%d p999=%d max=%d\n", name, s.Count,
		int64(s.Min), int64(s.Mean), int64(s.P50), int64(s.P90), int64(s.P99), int64(s.P999), int64(s.Max))
	for _, pt := range hist.CDF() {
		fmt.Fprintf(w, "%d %.17g\n", int64(pt.Value), pt.Fraction)
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// sample is one rep's measurement.
type sample struct {
	setupS, runS float64
	// heapB is the live heap after a GC at the horizon, with the
	// simulation reachable, minus the live heap at rep start; allocB the
	// bytes allocated from set-up start to the horizon.
	heapB, allocB float64
	// Run-phase (post-set-up) allocation and GC pause deltas.
	runMallocs, runBytes, runPauseNs uint64
	counts                           counts
	digest                           digest
	workers                          int
	layers                           *layerTimes // traced rep only
	err                              error
}

// tracedHeadroom is the heap growth the traced rep allows before the
// collector runs.
const tracedHeadroom = 512 << 20

// runRep runs one rep: collect garbage and return memory to the OS so
// every rep starts from the same heap, time the set-up, time the run to
// the horizon, then — outside both timed regions — measure the live heap
// and check invariants and outputs.
func runRep(setup setupFunc, traced bool) (s sample) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("panic: %v", r)
		}
	}()
	runtime.GC()
	debug.FreeOSMemory()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	in, err := setup()
	s.setupS = time.Since(t0).Seconds()
	if err != nil {
		s.err = fmt.Errorf("set-up: %w", err)
		return s
	}
	runtime.ReadMemStats(&m1)
	s.workers = in.workers
	var tr *tracer
	if traced {
		if len(in.streams) > 0 {
			// On the Inject path the TCP generator encodes a fresh frame per
			// segment, where its default path reuses pooled buffers. With a
			// small live heap that garbage would start back-to-back GC
			// cycles whose cost lands inside the layers being timed, so the
			// collector waits until the heap has grown by tracedHeadroom.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(m1.HeapAlloc) + tracedHeadroom))
		}
		tr = instrument(in)
	}
	t1 := time.Now()
	err = in.run()
	s.runS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m2)
	if err != nil {
		s.err = fmt.Errorf("run: %w", err)
		return s
	}
	runtime.GC()
	runtime.ReadMemStats(&m3)

	s.heapB = float64(int64(m3.HeapAlloc) - int64(m0.HeapAlloc))
	s.allocB = float64(m2.TotalAlloc - m0.TotalAlloc)
	s.runMallocs = m2.Mallocs - m1.Mallocs
	s.runBytes = m2.TotalAlloc - m1.TotalAlloc
	s.runPauseNs = m2.PauseTotalNs - m1.PauseTotalNs
	if err := in.check(); err != nil {
		s.err = fmt.Errorf("invariants: %w", err)
		return s
	}
	s.counts = in.counts()
	s.digest, s.counts.obsHists = in.digest()
	if tr != nil {
		s.layers = tr.finish()
	}
	return s
}
