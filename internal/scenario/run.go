package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/obs"
	"prism/internal/stats"
	"prism/internal/testbed"
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

var flowKinds = map[string]testbed.FlowKind{"echo": testbed.Echo, "flood": testbed.Flood, "tcp": testbed.TCP}

// workloadFlows lowers single-host workload groups onto testbed flows.
// Every group gets its own container and every sender its own client
// container; client indices run across groups. Shaping the file sets
// explicitly reaches the generator even when it equals a default.
func workloadFlows(groups []Group) []testbed.Flow {
	flows := make([]testbed.Flow, len(groups))
	client := 0
	for i, g := range groups {
		f := testbed.Flow{
			Kind: flowKinds[g.Type], Container: g.Name, Hi: g.Priority == "hi",
			Port: uint16(g.Port), Client: client, Rate: g.Rate,
			Senders: g.Senders, Burst: g.Burst, PayloadLen: g.PayloadLen, MsgSize: g.MsgSize,
			Phases: g.Phases, StopAt: g.StopAt,
		}
		if f.Port == 0 {
			f.Port = uint16(15000 + i)
		}
		if g.poissonSet {
			f.Poisson = &g.Poisson
		}
		if g.jitterSet {
			f.JitterFrac = &g.JitterFrac
		}
		flows[i] = f
		client += g.Senders
	}
	return flows
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

	srcs, err := tb.Start(pm.Warmup, pm.EchoCost, pm.SinkCost, workloadFlows(s.Workload)...)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := tb.Run(pm.Warmup, pm.Duration); err != nil {
		return nil, err
	}

	now := tb.Eng.Now()
	m := map[string]float64{"util": tb.Host.ProcCore.Utilization(now), "shed": float64(tb.Shed())}
	for i, src := range srcs {
		k := s.Workload[i].Name
		switch {
		case src.PP != nil:
			addSummary(m, k, src.PP.Hist.Summarize())
			m[k+"_kernel_p99_us"] = src.PP.KernelHist.Summarize().P99.Micros()
			m[k+"_sent"] = float64(src.PP.Sent)
			m[k+"_recv"] = float64(src.PP.Received)
			continue
		case src.TCP != nil:
			m[k+"_sent_pkts"] = float64(src.TCP.SentPkts)
		default:
			var sent uint64
			for _, f := range src.Floods {
				sent += f.Sent
			}
			m[k+"_sent"] = float64(sent)
		}
		m[k+"_delivered"] = float64(src.Delivered().Count())
		m[k+"_kpps"] = src.Delivered().Kpps(now)
	}
	if tb.Plane != nil {
		c := tb.Plane.Stats()
		m["faults_injected"] = float64(c.Injected())
		m["faults_rescues"] = float64(c.WatchdogRescues)
	}

	if s.Conservation {
		if err := tb.Settle(); err != nil {
			return nil, fmt.Errorf("scenario: conservation check failed: %w", err)
		}
		m["conservation_ok"] = 1
	}
	res := &Result{Metrics: m, Digests: map[string]string{}}
	res.Digests["metrics"], res.Digests["spans"], err = obs.Digests(tb.Pipe)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runCustomCluster runs a declared multi-host topology through the
// cluster experiment's run path.
func (p *Plan) runCustomCluster() (*Result, error) {
	s := p.Scenario
	m := map[string]float64{}
	row, err := experiments.RunCluster(p.Params, *p.ClusterRun, "", s.Conservation, nil, func(c *cluster.Cluster) {
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
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	addSummary(m, "hi", row.Hi)
	addSummary(m, "lo", row.Lo)
	m["hi_sent"], m["hi_recv"] = float64(row.HiSent), float64(row.HiRecv)
	m["lo_sent"], m["lo_recv"] = float64(row.LoSent), float64(row.LoRecv)
	m["flood_recv"] = float64(row.FloodRecv)
	m["admit_denied"] = float64(row.AdmitDenied)
	m["fabric_drops"], m["fabric_shed"] = float64(row.FabricDrops), float64(row.FabricShed)
	m["fabric_util_max"], m["fabric_util_mean"] = row.FabricUtilMax, row.FabricUtilMean
	m["windows"] = float64(row.Windows)
	if s.Conservation {
		m["conservation_ok"] = 1
	}
	return &Result{Metrics: m, Digests: map[string]string{"metrics": row.MetricsSHA, "spans": row.SpansSHA}}, nil
}
