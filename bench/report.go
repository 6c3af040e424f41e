package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// specPath and expectPath are relative to the checkout root, where the
// benchmark runs.
const (
	specPath   = "BENCHMARK.json"
	expectPath = "bench/expect.json"
)

// expectSeed is the seed bench/expect.json pins.
const expectSeed = 42

// spec is the part of BENCHMARK.json the benchmark reads: metric names,
// units, directions and bounds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func loadExpect(path string) (map[string]digest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]digest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally accumulates one workload's reps and applies the correctness gate:
// a rep fails on a set-up or run error, a broken invariant, or a digest
// that differs from the reference (the expected digest when one is given,
// otherwise the workload's first good rep).
type tally struct {
	w        workload
	setup    setupFunc
	ref      *digest
	timed    []sample
	traced   *sample
	attempts int
	failed   int
	failures []string
}

func newTally(w workload, seed uint64, sc scale, expected *digest) *tally {
	return &tally{w: w, setup: w.prepare(seed, sc), ref: expected}
}

// rep runs and records one rep. Warm-up reps are checked but not timed.
func (t *tally) rep(kind repKind) {
	s := runRep(t.setup, kind == traced)
	t.attempts++
	if s.err == nil {
		switch {
		case t.ref == nil:
			d := s.digest
			t.ref = &d
		case s.digest != *t.ref:
			s.err = fmt.Errorf("digest %s/%s, want %s/%s",
				short(s.digest.Core), short(s.digest.Obs), short(t.ref.Core), short(t.ref.Obs))
		}
	}
	if s.err != nil {
		t.fail(fmt.Sprintf("%s rep: %v", kind, s.err))
		return
	}
	switch kind {
	case timed:
		t.timed = append(t.timed, s)
	case traced:
		t.traced = &s
	}
}

type repKind int

const (
	warmup repKind = iota
	timed
	traced
)

func (k repKind) String() string { return [...]string{"warm-up", "timed", "traced"}[k] }

func (t *tally) fail(msg string) {
	t.failed++
	t.failures = append(t.failures, msg)
}

// checkTwin applies the cross-workload gate: this workload's outputs must
// equal its twin's. A mismatch means every rep produced wrong outputs, so
// every rep counts as failed.
func (t *tally) checkTwin(twin *digest) {
	if t.ref == nil || twin == nil {
		t.fail(fmt.Sprintf("no digest to compare with twin %s", t.w.twin))
		return
	}
	if t.ref.Core != twin.Core || (t.w.twinObs && t.ref.Obs != twin.Obs) {
		t.failures = append(t.failures, fmt.Sprintf("outputs differ from %s: %s/%s vs %s/%s", t.w.twin,
			short(t.ref.Core), short(t.ref.Obs), short(twin.Core), short(twin.Obs)))
		t.failed = t.attempts
	}
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// result is one workload's report.
type result struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	SetupS    []float64         `json:"setup_s_samples"`
	RunS      []float64         `json:"run_s_samples"`
	Digest    *digest           `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// result computes the workload's metrics. clockNs is the calibrated
// in-interval cost of one timing call pair.
func (t *tally) result(clockNs float64) result {
	r := result{Name: t.w.name, Attempted: t.attempts, Failed: t.failed, Failures: t.failures,
		Digest: t.ref, Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }
	set("fail_frac", "fraction", float64(t.failed)/float64(max(t.attempts, 1)))
	if len(t.timed) == 0 {
		return r
	}
	var heap, alloc, mallocs, bytes, pause []float64
	for _, s := range t.timed {
		r.SetupS = append(r.SetupS, s.setupS)
		r.RunS = append(r.RunS, s.runS)
		heap = append(heap, s.heapB)
		alloc = append(alloc, s.allocB)
		mallocs = append(mallocs, float64(s.runMallocs))
		bytes = append(bytes, float64(s.runBytes))
		pause = append(pause, float64(s.runPauseNs)/(s.runS*1e9))
	}
	c := t.timed[0].counts
	run := median(r.RunS)
	pkts := float64(c.dmad)

	set("pkts_per_s", "pkts/s", pkts/run)
	set("setup_s", "s", median(r.SetupS))
	set("run_s", "s", run)
	set("heap_mb", "MB", median(heap)/1e6)
	set("alloc_mb", "MB", median(alloc)/1e6)
	set("hi_p99_us", "sim_us", float64(c.hiP99)/1e3)

	set("sim.events_per_pkt", "count", ratio(float64(c.events), pkts))
	set("sim.events_per_s", "1/s", float64(c.events)/run)
	set("sim.ns_per_event", "ns", ratio(run*1e9, float64(c.events)))
	set("softirq.pkts_per_poll", "count", ratio(float64(c.softirq.Packets), float64(c.softirq.Iterations)))
	set("softirq.drop_frac", "fraction", ratio(float64(c.softirq.Dropped), pkts))
	set("softirq.deliver_frac", "fraction", ratio(float64(c.softirq.Delivered), pkts))
	set("nic.irqs_per_pkt", "count", ratio(float64(c.irqs), pkts))
	set("nic.ring_drop_frac", "fraction", ratio(float64(c.ringDrops), pkts+float64(c.ringDrops)))
	set("gc.allocs_per_pkt", "count", ratio(median(mallocs), pkts))
	set("gc.bytes_per_pkt", "B", ratio(median(bytes), pkts))
	set("gc.pause_frac", "fraction", median(pause))
	set("obs.events_per_pkt", "count", ratio(float64(c.obsEvents), pkts))
	set("obs.histograms", "count", float64(c.obsHists))
	set("stats.histograms", "count", float64(c.obsHists+2*c.echoes))
	set("par.windows", "count", float64(c.windows))
	set("par.events_per_window", "count", ratio(float64(c.events), float64(c.windows)))
	set("par.window_us", "sim_us", ratio(float64(c.horizon)/1e3, float64(c.windows)))
	set("par.shard_imbalance", "ratio", imbalance(c.shardEvents))
	set("cluster.fabric_frames_per_pkt", "count", ratio(float64(c.fabricRx), pkts))
	set("cluster.fabric_drop_frac", "fraction", ratio(float64(c.fabricDrops), float64(c.fabricRx)))
	set("cluster.admit_denied_frac", "fraction", ratio(float64(c.admitDenied), float64(c.offered)))
	set("cluster.switch_event_share", "fraction", ratio(float64(c.switchEvents), float64(c.events)))

	if tr := t.traced; tr != nil {
		lt := tr.layers
		// Shares are of the untraced run's worker time, so the ledger
		// explains the end-to-end cost and the tracing overhead lands in
		// trace.overhead, not in the residual. With two workers, layer
		// time accrues on two goroutines at once.
		budget := run * 1e9 * float64(tr.workers)
		residual := 1.0
		for l, name := range layerNames {
			self := float64(lt.ns[l]) - float64(lt.calls[l])*clockNs
			share := ratio(self, budget)
			residual -= share
			if lt.calls[l] > 0 {
				set(name+".ns", "ns", self/float64(lt.calls[l]))
			}
			set(name+".share", "fraction", share)
		}
		set("residual.share", "fraction", residual)
		set("trace.overhead", "fraction", tr.runS/run-1)
		set("par.idle_shard_frac", "fraction", lt.idleShardFrac)
	}
	return r
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the busiest shard's executed events over the mean; 0 when
// the run is not sharded.
func imbalance(events []uint64) float64 {
	if len(events) == 0 {
		return 0
	}
	var total, most uint64
	for _, e := range events {
		total += e
		most = max(most, e)
	}
	return ratio(float64(most), float64(total)/float64(len(events)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostInfo identifies the machine and runtime a result was measured on;
// -compare refuses to stay silent when two results differ here.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func currentHost() hostInfo {
	cpu := "unknown"
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return hostInfo{
		CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc, GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// report is the full result file -out writes and -compare reads.
type report struct {
	Host      hostInfo `json:"host"`
	Seed      uint64   `json:"seed"`
	Rounds    int      `json:"rounds"`
	ClockNs   float64  `json:"clock_ns"`
	Workloads []result `json:"workloads"`
}

func (r report) failed() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

func writeReport(path string, r report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
