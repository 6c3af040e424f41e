package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/stats"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// Result is one executed scenario: a flat metric namespace (the SLO
// surface), the observability digests the determinism gates diff across
// worker counts, and the evaluated assertions. Marshaling a Result is
// deterministic — maps serialize with sorted keys — so the committed
// golden datasets under scenarios/testdata are byte-comparable.
type Result struct {
	Name    string
	Kind    string
	Metrics map[string]float64
	Digests map[string]string `json:",omitempty"`
	SLOs    []SLOResult       `json:",omitempty"`

	// Experiment is the raw harness result (Fig3Result, ChaosResult, …)
	// the round-trip golden tests compare against the figure fixtures;
	// Table its human rendering. Neither is part of the marshaled dataset.
	Experiment any    `json:"-"`
	Table      string `json:"-"`
}

// Passed reports whether every SLO assertion held.
func (r *Result) Passed() bool {
	for _, s := range r.SLOs {
		if !s.Pass {
			return false
		}
	}
	return true
}

// String renders the harness table (when the run produced one), the
// sorted metric namespace, digests and SLO verdicts — deterministically,
// so CI can diff the output across worker counts byte for byte.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s [%s]\n", r.Name, r.Kind)
	if r.Table != "" {
		b.WriteString(r.Table)
		if !strings.HasSuffix(r.Table, "\n") {
			b.WriteByte('\n')
		}
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("metrics:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-40s %s\n", k, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64))
	}
	if len(r.Digests) > 0 {
		dk := make([]string, 0, len(r.Digests))
		for k := range r.Digests {
			dk = append(dk, k)
		}
		sort.Strings(dk)
		b.WriteString("digests:\n")
		for _, k := range dk {
			fmt.Fprintf(&b, "  %-40s %s\n", k, r.Digests[k])
		}
	}
	for _, s := range r.SLOs {
		verdict := "PASS"
		if !s.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "slo %s: %s (measured %s)\n", verdict, s.Expr,
			strconv.FormatFloat(s.Measured, 'g', -1, 64))
	}
	return b.String()
}

// Run executes the compiled plan and evaluates its SLOs. An SLO that
// fails does not error — callers check Result.Passed — but an assertion
// naming a metric the run never produced does.
func (p *Plan) Run() (*Result, error) {
	res, err := p.execute()
	if err != nil {
		return nil, err
	}
	res.Name = p.Scenario.Name
	if res.Name == "" {
		res.Name = p.Kind
	}
	res.Kind = p.Kind
	for _, slo := range p.Scenario.SLOs {
		ev, err := slo.Eval(res.Metrics)
		if err != nil {
			return nil, err
		}
		res.SLOs = append(res.SLOs, ev)
	}
	return res, nil
}

func (p *Plan) execute() (*Result, error) {
	switch {
	case p.Spec != nil:
		return p.runCustom()
	case p.ClusterRun != nil:
		return p.runCustomCluster()
	}
	return p.runExperiment()
}

func addSummary(m map[string]float64, prefix string, s stats.Summary) {
	m[prefix+"_p50_us"] = s.P50.Micros()
	m[prefix+"_p99_us"] = s.P99.Micros()
	m[prefix+"_mean_us"] = s.Mean.Micros()
	m[prefix+"_max_us"] = s.Max.Micros()
}

func fmtRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

func (p *Plan) runExperiment() (*Result, error) {
	pm := p.Params
	res := &Result{Metrics: map[string]float64{}}
	m := res.Metrics
	switch p.Kind {
	case "fig3":
		r := experiments.Fig3(pm)
		addSummary(m, "idle", r.Idle)
		addSummary(m, "busy", r.Busy)
		m["median_ratio"] = r.MedianRatio
		m["p99_ratio"] = r.P99Ratio
		m["busy_util"] = r.BusyUtil
		res.Experiment, res.Table = r, r.String()
	case "fig8":
		r := experiments.Fig8(pm)
		for _, row := range r.Rows {
			k := row.Mode.String()
			addSummary(m, k, row.Latency)
			m[k+"_kpps"] = row.MaxKpps
			m[k+"_util"] = row.OfferedUtil
		}
		res.Experiment, res.Table = r, r.String()
	case "fig9", "fig10":
		var r experiments.Fig9Result
		if p.Kind == "fig9" {
			r = experiments.Fig9(pm)
		} else {
			r = experiments.Fig10(pm)
		}
		addSummary(m, "idle", r.Idle)
		for _, row := range r.Rows {
			k := row.Mode.String()
			addSummary(m, k, row.Busy)
			m[k+"_util"] = row.Util
			m[k+"_kernel_p99_us"] = row.Kernel.P99.Micros()
			m[k+"_avg_cut"] = r.Improvement(row.Mode, experiments.MeanOf)
			m[k+"_p99_cut"] = r.Improvement(row.Mode, experiments.P99Of)
		}
		res.Experiment, res.Table = r, r.String()
	case "fig11":
		r := experiments.Fig11(pm, p.Fig11Loads)
		for _, s := range r.Series {
			for _, pt := range s.Points {
				k := fmt.Sprintf("%s_bg%.0fk", s.Mode, pt.BGKpps)
				m[k+"_min_us"] = pt.Min.Micros()
				m[k+"_avg_us"] = pt.Avg.Micros()
				m[k+"_p99_us"] = pt.P99.Micros()
				m[k+"_util"] = pt.Util
			}
		}
		res.Experiment, res.Table = r, r.String()
	case "stages":
		r := experiments.Stages(pm)
		for _, row := range r.Rows {
			k := row.Mode.String()
			m[k+"_e2e_p99_us"] = row.E2E.P99.Micros()
			m[k+"_hi_e2e_p99_us"] = row.HighE2E.P99.Micros()
			m[k+"_delivered"] = float64(row.Delivered)
			m[k+"_dropped"] = float64(row.Dropped)
		}
		res.Experiment, res.Table = r, r.String()
	case "policies":
		r := experiments.Policies(pm, p.Variants)
		for _, row := range r.Rows {
			k := row.Variant.Label()
			addSummary(m, k, row.Busy)
			m[k+"_util"] = row.Util
		}
		res.Experiment, res.Table = r, r.String()
	case "chaos":
		r := experiments.Chaos(pm, nil, p.ChaosRates)
		res.Digests = map[string]string{}
		for _, row := range r.Rows {
			k := fmt.Sprintf("%s_r%s", row.Variant.Label(), fmtRate(row.FaultRate))
			m[k+"_hi_p99_us"] = row.High.P99.Micros()
			m[k+"_lo_p99_us"] = row.Low.P99.Micros()
			m[k+"_hi_recv"] = float64(row.HighRecv)
			m[k+"_lo_recv"] = float64(row.LowRecv)
			m[k+"_bg_recv"] = float64(row.BGRecv)
			m[k+"_shed"] = float64(row.Shed)
			m[k+"_rescues"] = float64(row.Rescues)
			m[k+"_util"] = row.Util
			res.Digests[k+"_metrics"] = row.MetricsSHA
			res.Digests[k+"_spans"] = row.SpansSHA
		}
		res.Experiment, res.Table = r, r.String()
	case "cluster":
		r := experiments.Cluster(pm, p.ClusterCfg)
		res.Digests = map[string]string{}
		for _, row := range r.Rows {
			k := row.Placement
			m[k+"_hi_p50_us"] = row.Hi.P50.Micros()
			m[k+"_hi_p99_us"] = row.Hi.P99.Micros()
			m[k+"_lo_p50_us"] = row.Lo.P50.Micros()
			m[k+"_lo_p99_us"] = row.Lo.P99.Micros()
			m[k+"_hi_recv"] = float64(row.HiRecv)
			m[k+"_lo_recv"] = float64(row.LoRecv)
			m[k+"_flood_recv"] = float64(row.FloodRecv)
			m[k+"_admit_denied"] = float64(row.AdmitDenied)
			m[k+"_fabric_drops"] = float64(row.FabricDrops)
			m[k+"_fabric_shed"] = float64(row.FabricShed)
			m[k+"_fabric_util_max"] = row.FabricUtilMax
			m[k+"_windows"] = float64(row.Windows)
			res.Digests[k+"_metrics"] = row.MetricsSHA
			res.Digests[k+"_spans"] = row.SpansSHA
		}
		res.Experiment, res.Table = r, r.String()
	default:
		return nil, fmt.Errorf("scenario: unknown experiment kind %q", p.Kind)
	}
	return res, nil
}

// generator is one wired traffic source and the handles the metric and
// teardown passes need.
type generator struct {
	group Group
	pp    *traffic.PingPong
	flood *traffic.UDPFlood // first sender (owns the shared sink counter)
	subs  []*traffic.UDPFlood
	tcp   *traffic.TCPStream
}

func (g *generator) stop() {
	if g.pp != nil {
		g.pp.Stop()
	}
	for _, f := range g.subs {
		f.Stop()
	}
	if g.tcp != nil {
		g.tcp.Stop()
	}
}

// runCustom wires and runs a single-machine topology from the declared
// workload groups.
func (p *Plan) runCustom() (*Result, error) {
	s := p.Scenario
	pm := p.Params
	spec := *p.Spec
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	spec.Pipe = obs.NewPipeline(name)
	tb := testbed.New(spec)
	eng, host := tb.Eng, tb.Host

	gens := make([]*generator, len(s.Workload))
	// Every sender is its own client container; indices run across groups.
	srcIdx := 0
	nextSrc := func() overlay.RemoteEndpoint {
		ep := overlay.ClientContainer(srcIdx, uint16(40000+srcIdx))
		srcIdx++
		return ep
	}
	for i, g := range s.Workload {
		ctr := host.AddContainer(g.Name)
		port := uint16(g.Port)
		if port == 0 {
			port = uint16(15000 + i)
		}
		if g.Priority == "hi" {
			host.DB.Add(prio.Rule{IP: ctr.IP, Port: port})
		}
		gen := &generator{group: g}
		switch g.Type {
		case "echo":
			pp := traffic.NewPingPong(eng, host, ctr, nextSrc(), port, g.Rate)
			pp.Warmup = pm.Warmup
			if err := pp.InstallEcho(pm.EchoCost); err != nil {
				return nil, fmt.Errorf("scenario: group %s: %w", g.Name, err)
			}
			pp.Start(tb.Client, 0)
			gen.pp = pp
			schedulePhases(eng, g, g.Rate, func(r float64) { pp.Rate = r })
			if g.StopAt > 0 {
				eng.At(g.StopAt, pp.Stop)
			}
		case "flood":
			perSender := g.Rate / float64(g.Senders)
			for k := 0; k < g.Senders; k++ {
				fl := traffic.NewUDPFlood(eng, host, ctr, nextSrc(), port, perSender)
				if g.Burst > 0 {
					fl.Burst = g.Burst
				}
				if g.poissonSet {
					fl.Poisson = g.Poisson
				}
				if g.jitterSet {
					fl.JitterFrac = g.JitterFrac
				}
				if g.PayloadLen > 0 {
					fl.PayloadLen = g.PayloadLen
				}
				if k == 0 {
					// One shared sink: the first sender's counter tallies
					// every delivery to the port, whoever sent it.
					if err := fl.InstallSink(pm.SinkCost); err != nil {
						return nil, fmt.Errorf("scenario: group %s: %w", g.Name, err)
					}
					host.Eng.At(pm.Warmup, func() { fl.Delivered.Start(pm.Warmup) })
					gen.flood = fl
				}
				fl.Start(0)
				gen.subs = append(gen.subs, fl)
				flc := fl
				schedulePhases(eng, g, perSender, func(r float64) { flc.Rate = r })
				if g.StopAt > 0 {
					eng.At(g.StopAt, flc.Stop)
				}
			}
		case "tcp":
			ts := traffic.NewTCPStream(eng, host, ctr, nextSrc(), port, g.Rate)
			if g.MsgSize > 0 {
				ts.MsgSize = g.MsgSize
			}
			if err := ts.InstallSink(pm.SinkCost); err != nil {
				return nil, fmt.Errorf("scenario: group %s: %w", g.Name, err)
			}
			host.Eng.At(pm.Warmup, func() { ts.Delivered.Start(pm.Warmup) })
			ts.Start(0)
			gen.tcp = ts
			schedulePhases(eng, g, g.Rate, func(r float64) { ts.MsgRate = r })
			if g.StopAt > 0 {
				eng.At(g.StopAt, ts.Stop)
			}
		}
		gens[i] = gen
	}

	if err := tb.Run(pm.Warmup, pm.Duration); err != nil {
		return nil, err
	}

	res := &Result{Metrics: map[string]float64{}, Digests: map[string]string{}}
	m := res.Metrics
	now := eng.Now()
	m["util"] = host.ProcCore.Utilization(now)
	var shed uint64
	for _, n := range host.NICs {
		shed += n.ShedDrops
	}
	for _, rx := range host.Rxs {
		shed += rx.Stats().Shed
	}
	m["shed"] = float64(shed)
	for _, gen := range gens {
		g := gen.group
		switch {
		case gen.pp != nil:
			addSummary(m, g.Name, gen.pp.Hist.Summarize())
			m[g.Name+"_kernel_p99_us"] = gen.pp.KernelHist.Summarize().P99.Micros()
			m[g.Name+"_sent"] = float64(gen.pp.Sent)
			m[g.Name+"_recv"] = float64(gen.pp.Received)
		case gen.flood != nil:
			var sent uint64
			for _, f := range gen.subs {
				sent += f.Sent
			}
			m[g.Name+"_sent"] = float64(sent)
			m[g.Name+"_delivered"] = float64(gen.flood.Delivered.Count())
			m[g.Name+"_kpps"] = gen.flood.Delivered.Kpps(now)
		case gen.tcp != nil:
			m[g.Name+"_sent_pkts"] = float64(gen.tcp.SentPkts)
			m[g.Name+"_delivered"] = float64(gen.tcp.Delivered.Count())
			m[g.Name+"_kpps"] = gen.tcp.Delivered.Kpps(now)
		}
	}
	if tb.Plane != nil {
		c := tb.Plane.Stats()
		m["faults_injected"] = float64(c.Injected())
		m["faults_rescues"] = float64(c.WatchdogRescues)
	}

	if s.Conservation {
		for _, gen := range gens {
			gen.stop()
		}
		if err := tb.Drain(); err != nil {
			return nil, err
		}
		if err := tb.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("scenario: conservation check failed: %w", err)
		}
		m["conservation_ok"] = 1
	}

	var err error
	res.Digests["metrics"], res.Digests["spans"], err = obs.Digests(tb.Pipe)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// schedulePhases arms the diurnal rate timeline: at each phase boundary
// the generator's rate becomes base × rate_x. The mutations run on the
// generator's own engine, so they are deterministic at any worker count.
func schedulePhases(eng *sim.Engine, g Group, base float64, set func(rate float64)) {
	for _, ph := range g.Phases {
		x := ph.RateX
		eng.At(ph.At, func() { set(base * x) })
	}
}

// runCustomCluster runs a declared multi-host topology, mirroring the
// cluster experiment's measurement pass.
func (p *Plan) runCustomCluster() (*Result, error) {
	s := p.Scenario
	pm := p.Params
	c, err := cluster.New(*p.ClusterRun)
	if err != nil {
		return nil, err
	}
	if err := c.Run(pm.Duration, pm.Workers); err != nil {
		return nil, err
	}

	res := &Result{Metrics: map[string]float64{}, Digests: map[string]string{}}
	m := res.Metrics
	hiH, loH := c.LatencyHists()
	addSummary(m, "hi", hiH.Summarize())
	addSummary(m, "lo", loH.Summarize())
	hiSent, hiRecv, loSent, loRecv, _, floodRecv := c.FlowCounts()
	m["hi_sent"], m["hi_recv"] = float64(hiSent), float64(hiRecv)
	m["lo_sent"], m["lo_recv"] = float64(loSent), float64(loRecv)
	m["flood_recv"] = float64(floodRecv)
	m["admit_denied"] = float64(c.AdmissionDenied())
	drops, shed := c.FabricDrops()
	m["fabric_drops"], m["fabric_shed"] = float64(drops), float64(shed)
	max, mean := c.FabricUtilization(c.Horizon())
	m["fabric_util_max"], m["fabric_util_mean"] = max, mean
	m["windows"] = float64(c.Group.Windows)
	m["racks"] = float64(c.Cfg.Fabric.Racks)
	if p.ClusterRun.Recovery != nil {
		m["detections"] = float64(len(c.Detections()))
		m["migrated"] = float64(len(c.Migrations()))
		m["snapshot_version"] = float64(c.Snapshot().Version)
		rx, tx := c.CrashDrops()
		m["crash_dropped"] = float64(rx + tx)
		m["epoch_dropped"] = float64(c.EpochDrops())
		m["admit_retries"] = float64(c.RecoveryRetries())
	}
	if c.Cfg.Host.Fault != nil {
		var injected uint64
		for _, n := range c.Nodes {
			injected += n.Plane.Stats().Injected()
		}
		m["faults_injected"] = float64(injected)
	}

	res.Digests["metrics"], res.Digests["spans"], err = obs.Digests(c.Pipes()...)
	if err != nil {
		return nil, err
	}

	if err := c.Settle(0, pm.Workers); err != nil {
		return nil, err
	}
	if err := c.CheckInvariants(s.Conservation); err != nil {
		return nil, fmt.Errorf("scenario: conservation check failed: %w", err)
	}
	if s.Conservation {
		m["conservation_ok"] = 1
	}
	return res, nil
}
