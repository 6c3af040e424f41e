package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"prism/internal/cluster"
	"prism/internal/softirq"
	"prism/internal/stats"
)

// Args are the grid knobs an experiment takes beyond Params. prismsim's
// flags and a scenario file's experiment block both fill them; zero values
// keep each harness's default grid.
type Args struct {
	// Loads is fig11's background-load grid (pps).
	Loads []float64
	// Rates is the chaos fault-rate ladder.
	Rates []float64
	// Policy restricts the policies ablation to one softirq registry
	// policy ("" = the whole ladder).
	Policy string
	// Hosts, Containers and Placements size the cluster and failover
	// experiments (0 or empty: the experiment's default; placement names
	// as cluster.ParsePlacement reads them).
	Hosts      int
	Containers int
	Placements []string
}

// Validate rejects a fault rate outside [0, 1], a negative host or
// container count, a poll policy the softirq registry lacks, a placement
// name cluster.ParsePlacement does not know and, for the cluster and
// failover experiments (exp names the experiment to run), a scale the
// cluster cannot hold; the error starts with the offending field's name.
// Run experiment exp only with Args that passed Validate(exp).
func (a Args) Validate(exp string) error {
	for i, r := range a.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("rates[%d]: fault rate %v outside [0, 1]", i, r)
		}
	}
	if a.Hosts < 0 {
		return fmt.Errorf("hosts: must not be negative, got %d", a.Hosts)
	}
	if a.Containers < 0 {
		return fmt.Errorf("containers: must not be negative, got %d", a.Containers)
	}
	if err := CheckPolicy(a.Policy); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	for _, name := range a.Placements {
		if _, err := cluster.ParsePlacement(name); err != nil {
			return fmt.Errorf("placements: %w", err)
		}
	}
	switch exp {
	case "cluster":
		return checkClusterScale(a)
	case "failover":
		return checkFailoverScale(a)
	}
	return nil
}

// CheckPolicy rejects a poll-policy name the softirq registry lacks; ""
// (derive the policy from the mode) is always valid.
func CheckPolicy(name string) error {
	known := softirq.Policies()
	if name == "" || slices.Contains(known, name) {
		return nil
	}
	sort.Strings(known)
	return fmt.Errorf("unknown poll policy %q (valid: %s)", name, strings.Join(known, ", "))
}

// scale returns a.Hosts and a.Containers, with zero values replaced by
// an experiment's default hosts and containers.
func (a Args) scale(hosts, containers int) (int, int) {
	return cmp.Or(a.Hosts, hosts), cmp.Or(a.Containers, containers)
}

// placements resolves a.Placements; empty means every policy.
func (a Args) placements() []cluster.Placement {
	if len(a.Placements) == 0 {
		return cluster.Placements
	}
	var pols []cluster.Placement
	for _, name := range a.Placements {
		pol, err := cluster.ParsePlacement(name)
		mustNoErr(err)
		pols = append(pols, pol)
	}
	return pols
}

// Experiment is one entry of the experiment table: the name prismsim -exp
// and a scenario file's experiment kind select it by, and its runner. The
// kinds a scenario file may name also carry Flatten, which maps the result
// onto the scenario's metric namespace (m) and obs digests (d).
type Experiment struct {
	Name    string
	Run     func(Params, Args) fmt.Stringer
	Flatten func(r fmt.Stringer, m map[string]float64, d map[string]string)
}

// entry adapts a typed runner and flattener (nil: not a scenario kind).
func entry[R fmt.Stringer](name string, run func(Params, Args) R, flatten func(R, map[string]float64, map[string]string)) Experiment {
	e := Experiment{Name: name, Run: func(p Params, a Args) fmt.Stringer { return run(p, a) }}
	if flatten != nil {
		e.Flatten = func(r fmt.Stringer, m map[string]float64, d map[string]string) { flatten(r.(R), m, d) }
	}
	return e
}

// noArgs adapts a harness that takes no grid knobs.
func noArgs[R any](run func(Params) R) func(Params, Args) R {
	return func(p Params, _ Args) R { return run(p) }
}

// Experiments lists every experiment in presentation order; prismsim -exp
// all runs them in this order.
var Experiments = []Experiment{
	entry("fig3", noArgs(Fig3), flattenFig3),
	entry("fig6", noArgs(Fig6), nil),
	entry("fig8", noArgs(Fig8), flattenFig8),
	entry("fig9", noArgs(Fig9), flattenFig9),
	entry("fig10", noArgs(Fig10), flattenFig9),
	entry("fig11", func(p Params, a Args) Fig11Result { return Fig11(p, a.Loads) }, flattenFig11),
	entry("fig12", noArgs(Fig12), nil),
	entry("fig13", noArgs(Fig13), nil),
	entry("extdriver", noArgs(ExtDriver), nil),
	entry("stages", noArgs(Stages), flattenStages),
	entry("policies", func(p Params, a Args) PoliciesResult { return Policies(p, PolicyByName(a.Policy)) }, flattenPolicies),
	entry("chaos", func(p Params, a Args) ChaosResult { return Chaos(p, a.Rates) }, flattenChaos),
	entry("batchsweep", func(p Params, _ Args) AblationBatchResult { return AblationBatch(p, nil) }, nil),
	entry("scaling", func(p Params, _ Args) ScalingResult { return Scaling(p, nil) }, nil),
	entry("cluster", Cluster, flattenCluster),
	entry("failover", Failover, nil),
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ScenarioKinds lists, in table order, the experiments a scenario file
// may name: those with a flattener.
func ScenarioKinds() []string {
	var kinds []string
	for _, e := range Experiments {
		if e.Flatten != nil {
			kinds = append(kinds, e.Name)
		}
	}
	return kinds
}

// AddSummary writes a latency summary as the four metrics prefix_p50_us,
// prefix_p99_us, prefix_mean_us and prefix_max_us.
func AddSummary(m map[string]float64, prefix string, s stats.Summary) {
	m[prefix+"_p50_us"] = s.P50.Micros()
	m[prefix+"_p99_us"] = s.P99.Micros()
	m[prefix+"_mean_us"] = s.Mean.Micros()
	m[prefix+"_max_us"] = s.Max.Micros()
}

func flattenFig3(r Fig3Result, m map[string]float64, _ map[string]string) {
	AddSummary(m, "idle", r.Idle)
	AddSummary(m, "busy", r.Busy)
	m["median_ratio"] = r.MedianRatio
	m["p99_ratio"] = r.P99Ratio
	m["busy_util"] = r.BusyUtil
}

func flattenFig8(r Fig8Result, m map[string]float64, _ map[string]string) {
	for _, row := range r.Rows {
		k := row.Mode.String()
		AddSummary(m, k, row.Latency)
		m[k+"_kpps"] = row.MaxKpps
		m[k+"_util"] = row.OfferedUtil
	}
}

func flattenFig9(r Fig9Result, m map[string]float64, _ map[string]string) {
	AddSummary(m, "idle", r.Idle)
	for _, row := range r.Rows {
		k := row.Mode.String()
		AddSummary(m, k, row.Busy)
		m[k+"_util"] = row.Util
		m[k+"_kernel_p99_us"] = row.Kernel.P99.Micros()
		m[k+"_avg_cut"] = r.Improvement(row.Mode, MeanOf)
		m[k+"_p99_cut"] = r.Improvement(row.Mode, P99Of)
	}
}

func flattenFig11(r Fig11Result, m map[string]float64, _ map[string]string) {
	for _, s := range r.Series {
		for _, pt := range s.Points {
			k := fmt.Sprintf("%s_bg%.0fk", s.Mode, pt.BGKpps)
			m[k+"_min_us"] = pt.Min.Micros()
			m[k+"_avg_us"] = pt.Avg.Micros()
			m[k+"_p99_us"] = pt.P99.Micros()
			m[k+"_util"] = pt.Util
		}
	}
}

func flattenStages(r StagesResult, m map[string]float64, _ map[string]string) {
	for _, row := range r.Rows {
		k := row.Mode.String()
		m[k+"_e2e_p99_us"] = row.E2E.P99.Micros()
		m[k+"_hi_e2e_p99_us"] = row.HighE2E.P99.Micros()
		m[k+"_delivered"] = float64(row.Delivered)
		m[k+"_dropped"] = float64(row.Dropped)
	}
}

func flattenPolicies(r PoliciesResult, m map[string]float64, _ map[string]string) {
	for _, row := range r.Rows {
		k := row.Variant.Label()
		AddSummary(m, k, row.Busy)
		m[k+"_util"] = row.Util
	}
}

func flattenChaos(r ChaosResult, m map[string]float64, d map[string]string) {
	for _, row := range r.Rows {
		k := fmt.Sprintf("%s_r%s", row.Variant.Label(), strconv.FormatFloat(row.FaultRate, 'g', -1, 64))
		m[k+"_hi_p99_us"] = row.High.P99.Micros()
		m[k+"_lo_p99_us"] = row.Low.P99.Micros()
		m[k+"_hi_recv"] = float64(row.HighRecv)
		m[k+"_lo_recv"] = float64(row.LowRecv)
		m[k+"_bg_recv"] = float64(row.BGRecv)
		m[k+"_shed"] = float64(row.Shed)
		m[k+"_rescues"] = float64(row.Rescues)
		m[k+"_util"] = row.Util
		d[k+"_metrics"] = row.MetricsSHA
		d[k+"_spans"] = row.SpansSHA
	}
}

func flattenCluster(r ClusterResult, m map[string]float64, d map[string]string) {
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
		d[k+"_metrics"] = row.MetricsSHA
		d[k+"_spans"] = row.SpansSHA
	}
}
