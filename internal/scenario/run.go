package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/obs"
	"prism/internal/sim"
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
	e, ok := experiments.Lookup(p.Kind)
	if !ok || e.Flatten == nil {
		return nil, fmt.Errorf("scenario: unknown experiment kind %q", p.Kind)
	}
	r := e.Run(p.Params, p.Args)
	res := &Result{Metrics: map[string]float64{}, Digests: map[string]string{}, Experiment: r, Table: r.String()}
	e.Flatten(r, res.Metrics, res.Digests)
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
// workload groups and control script.
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

	flows := workloadFlows(s.Workload)
	ports := map[uint16]experiments.PortWorkload{}
	for i, f := range flows {
		ports[f.Port] = experiments.PortWorkload{Name: f.Container, Hi: s.Workload[i].Priority == "hi"}
	}
	detach := experiments.AttachTestbed(pm.Live, tb, name, pm.Warmup+pm.Duration, experiments.PortClassifier(ports))
	srcs, err := tb.Start(pm.Warmup, pm.EchoCost, pm.SinkCost, flows...)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	phases := scheduleControl(tb, s.Control, s.Workload, srcs)
	if err := tb.Run(pm.Warmup, pm.Duration); err != nil {
		return nil, err
	}
	detach()

	now := tb.Eng.Now()
	m := map[string]float64{"util": tb.Host.ProcCore.Utilization(now), "shed": float64(tb.Shed())}
	for i, src := range srcs {
		k := s.Workload[i].Name
		switch {
		case src.PP != nil:
			experiments.AddSummary(m, k, src.PP.Hist.Summarize())
			m[k+"_kernel_p99_us"] = src.PP.KernelHist.Summarize().P99.Micros()
			m[k+"_sent"] = float64(src.PP.Sent)
			m[k+"_recv"] = float64(src.PP.Received)
			for ph, h := range phases[i] {
				experiments.AddSummary(m, fmt.Sprintf("%s_phase%d", k, ph), h.Summarize())
			}
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

// scheduleControl arms the control script on the host's priority
// database as engine events: add and del write a rule (a group names its
// flow's own rule, the one priority: hi adds at start) and mode switches
// the PRISM mode. With a script, every echo group's samples are also
// split into phases at the op times — phase k holds the samples delivered
// once k ops have run. The histograms are indexed [group][phase]; a group
// that is not an echo, or a run without a script, has none.
func scheduleControl(tb *testbed.Testbed, ops []ControlOp, groups []Group, srcs []*testbed.Source) [][]*stats.Histogram {
	phases := make([][]*stats.Histogram, len(srcs))
	if len(ops) == 0 {
		return phases
	}
	db := tb.Host.DB
	ats := make([]sim.Time, len(ops))
	for i, c := range ops {
		ats[i] = c.At
		if c.Op == "mode" {
			m := modeNames[c.Arg]
			tb.Eng.At(c.At, func() { db.SetMode(m) })
			continue
		}
		r := c.Rule
		if r == nil {
			r = &srcs[slices.IndexFunc(groups, func(g Group) bool { return g.Name == c.Arg })].Rule
		}
		if rule := *r; c.Op == "add" {
			tb.Eng.At(c.At, func() { db.Add(rule) })
		} else {
			tb.Eng.At(c.At, func() { db.Remove(rule) })
		}
	}
	for i, src := range srcs {
		if src.PP == nil {
			continue
		}
		hs := make([]*stats.Histogram, len(ops)+1)
		for k := range hs {
			hs[k] = stats.NewHistogram()
		}
		src.PP.OnSample = func(_ uint64, lat sim.Time) {
			k, now := 0, tb.Eng.Now()
			for k < len(ats) && ats[k] <= now {
				k++
			}
			hs[k].Record(lat)
		}
		phases[i] = hs
	}
	return phases
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
	experiments.AddSummary(m, "hi", row.Hi)
	experiments.AddSummary(m, "lo", row.Lo)
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
