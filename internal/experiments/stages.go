package experiments

import (
	"fmt"
	"strings"

	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/prio"
	"prism/internal/stats"
)

// StageModeRow is one engine mode's fully instrumented run: the complete
// observability pipeline (span stream + metrics registry) plus the
// per-stage latency decomposition extracted from it.
type StageModeRow struct {
	Mode prio.Mode
	// Pipeline holds the run's span stream and metrics registry; the
	// Shard label of every metric is the mode name, so merged exports
	// keep the runs distinguishable.
	Pipeline  *obs.Pipeline
	Breakdown []obs.StageStat
	E2E       stats.Summary
	// HighBreakdown and HighE2E restrict the decomposition to the
	// high-priority flow (priority level 1) — the view Figs. 4/5 plot:
	// under vanilla the flow's wait accumulates behind background batches
	// at every stage; PRISM removes it from stage 2 onward.
	HighBreakdown []obs.StageStat
	HighE2E       stats.Summary
	Delivered     uint64
	Dropped       uint64
}

// StagesResult reproduces the per-stage latency decomposition behind the
// paper's Figs. 4–5: where receive latency accumulates (queue wait vs
// handler service at nic/bridge/veth/socket) for the standard contended
// workload — a 1 kpps high-priority flow against a ~300 kpps background
// flood on one core — under each engine. Vanilla accumulates wait at the
// later stages (the batch-interleaving of Fig. 6a); PRISM removes it.
type StagesResult struct {
	Rows []StageModeRow
}

// Stages runs the instrumented workload once per mode. The measurement
// points are independent engines, so they fan out over p.Workers with
// bit-identical results for any worker count (each mode's pipeline is
// local to its engine).
func Stages(p Params) StagesResult {
	res := StagesResult{Rows: make([]StageModeRow, len(Modes))}
	par.ForEach(len(Modes), p.Workers, func(i int) {
		mode := Modes[i]
		pipe := obs.NewPipeline(mode.String())
		latencyUnderLoad(p, mode, p.BGRate, true, WithObs(pipe))
		res.Rows[i] = StageModeRow{
			Mode:          mode,
			Pipeline:      pipe,
			Breakdown:     obs.StageBreakdown(pipe.M),
			E2E:           obs.E2ESummary(pipe.M),
			HighBreakdown: obs.StageBreakdownFilter(pipe.M, obs.Labels{Priority: 1}),
			HighE2E:       obs.E2ESummaryFilter(pipe.M, obs.Labels{Priority: 1}),
			Delivered:     pipe.M.CounterValue("prism_delivered_total", obs.Labels{}),
			Dropped:       pipe.M.CounterValue("prism_dropped_total", obs.Labels{}),
		}
	})
	return res
}

// MergedRegistry folds every mode's metrics into one registry (modes stay
// distinguishable via the shard label); exporters consume it.
func (r StagesResult) MergedRegistry() *obs.Registry {
	regs := make([]*obs.Registry, len(r.Rows))
	for i, row := range r.Rows {
		regs[i] = row.Pipeline.M
	}
	return obs.MergeRegistries(regs...)
}

// TraceProcesses returns one Chrome-trace process per mode, in run order.
func (r StagesResult) TraceProcesses() []obs.TraceProcess {
	procs := make([]obs.TraceProcess, len(r.Rows))
	for i, row := range r.Rows {
		procs[i] = obs.TraceProcess{Name: row.Mode.String(), Events: row.Pipeline.T.Events()}
	}
	return procs
}

// String renders one Fig. 4/5-style breakdown table per mode: first all
// traffic, then the high-priority flow alone.
func (r StagesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-stage latency decomposition (Fig. 4/5) — wait is time queued before a stage, service is handler CPU\n")
	for _, row := range r.Rows {
		title := fmt.Sprintf("\n[%s]  delivered=%d dropped=%d  e2e: %s",
			row.Mode, row.Delivered, row.Dropped, row.E2E)
		b.WriteString(obs.FormatBreakdown(title, row.Breakdown))
		title = fmt.Sprintf("[%s] high-priority flow only  e2e: %s", row.Mode, row.HighE2E)
		b.WriteString(obs.FormatBreakdown(title, row.HighBreakdown))
	}
	return b.String()
}
