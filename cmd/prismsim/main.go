// Command prismsim runs the paper's experiments and prints the tables and
// series each figure reports.
//
// Usage:
//
//	prismsim -exp fig3          # one experiment
//	prismsim -exp all           # everything (takes a few minutes)
//	prismsim -exp fig9 -duration 2s -bg 250000 -seed 7
//	prismsim -exp fig3 -cdf     # also dump CDF points for plotting
//	prismsim -exp fig11 -parallel 4   # fan the sweep's points over 4 workers
//	prismsim -exp stages -metrics-out m.prom -trace-out t.json
//	prismsim -exp policies            # softirq poll-policy ablation ladder
//	prismsim -exp policies -policy headonly   # one policy variant only
//	prismsim -exp cluster -hosts 16 -containers 1000   # datacenter run
//	prismsim -exp cluster -listen :8080    # + live operator surface
//	prismsim -exp failover                 # kill-and-recover grid
//	prismsim -scenario scenarios/incast.yaml   # declarative scenario file
//	prismsim -scenario scenarios/control.yaml -listen :8080   # + /capture
//
// Every -exp name is an entry of experiments.Experiments, the one table a
// scenario file's experiment block also resolves against. -policy,
// -faultrate, -hosts, -containers and -placement fill experiments.Args,
// the grid knobs both front ends share; a value Args.Validate rejects
// (an unknown poll policy or placement, a fault rate outside [0, 1], a
// negative host or container count, a cluster or failover scale the
// cluster cannot hold) exits 2 with one line before anything runs, as
// does a -duration that is not positive or a negative -warmup.
// -cdf, -metrics-out and -trace-out post-process the returned result.
//
// -scenario runs a declarative scenario file (YAML subset or JSON, see
// scenarios/ and internal/scenario) instead of -exp: the file picks the
// topology, traffic mix, fault timeline and SLO assertions, and the run
// exits non-zero when an assertion fails (1) or the file is malformed
// (2, with a path-qualified error). -parallel and the live-surface flags
// (-listen, -checkpoint, -linger) still apply; every other tuning flag
// comes from the file. scenarios/control.yaml drives the paper's procfs
// control plane (§IV-A): rules added and deleted and batch/sync switches
// at given virtual times, with per-phase latency metrics.
//
// -parallel N runs multi-point experiments (fig9, fig10, fig11, scaling,
// and the sweeps) with up to N parameter points in flight, each on its own
// engine (internal/par), and shards the cluster experiment's hosts and
// switches over N workers. Results are bit-identical for every N.
//
// -metrics-out and -trace-out run the instrumented stages experiment (or
// accompany -exp stages) and export its observability data: metrics as a
// JSON snapshot (path ending in .json) or Prometheus text exposition
// (any other extension), and the span streams as Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing.
//
// -listen addr serves the live operator surface while experiments run:
// /metrics (Prometheus exposition of the latest virtual-time checkpoint),
// /capture (streaming pcap with container/priority selectors — pipe it
// into Wireshark), /trace (Chrome trace events as NDJSON), and /status
// (SSE run progress). The cluster and chaos experiments and custom
// scenario runs publish into it;
// attaching the surface never changes results — the determinism gates
// re-derive the golden digests with it enabled. -checkpoint sets the
// snapshot cadence in virtual time; -linger keeps the server answering
// for a real-time grace period after the runs finish.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"prism/internal/experiments"
	"prism/internal/live"
	"prism/internal/obs"
	"prism/internal/scenario"
	"prism/internal/sim"
	"prism/internal/stats"
)

// expNames renders the experiment table's names for the usage string.
func expNames() string {
	names := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, "|")
}

// selectExperiments resolves the -exp value against the experiment
// table: a single name, or "all" for the whole table. Unknown names fail
// fast with the valid set.
func selectExperiments(name string) ([]experiments.Experiment, error) {
	if name == "all" {
		return experiments.Experiments, nil
	}
	if e, ok := experiments.Lookup(name); ok {
		return []experiments.Experiment{e}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s|all)", name, expNames())
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses argv, runs the selected experiments or scenario file and
// returns the process exit status: 0 on success, 1 when a run fails or an
// SLO assertion does not hold, 2 on bad flags or a malformed scenario.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: "+expNames()+"|all")
		seed      = fs.Uint64("seed", 42, "simulation seed")
		duration  = fs.Duration("duration", time.Second, "measured duration (virtual time)")
		warmup    = fs.Duration("warmup", 100*time.Millisecond, "warmup (virtual time)")
		bg        = fs.Float64("bg", 300_000, "background rate (pps)")
		high      = fs.Float64("high", 1000, "high-priority flow rate (pps)")
		load      = fs.Float64("load", 270_000, "fig8 latency load (pps)")
		burst     = fs.Int("burst", 96, "background burst size (frames)")
		cdf       = fs.Bool("cdf", false, "dump CDF points for CDF figures")
		policy    = fs.String("policy", "all", "softirq poll policy for -exp policies: vanilla|dualq|headonly|prism|all")
		faultrate = fs.Float64("faultrate", 0.4, "chaos experiment's top fault intensity (the ladder is 0, r/4, r/2, r)")
		parallel  = fs.Int("parallel", 1, "worker count for multi-point and cluster experiments (deterministic: results identical for any value)")

		hosts      = fs.Int("hosts", 0, "cluster experiment host count (0 = default 16)")
		containers = fs.Int("containers", 0, "cluster experiment container count (0 = default 1000)")
		placement  = fs.String("placement", "all", "cluster placement policy: spread|pack|priority|all")

		metricsOut = fs.String("metrics-out", "", "write the stages experiment's metrics here (.json = JSON snapshot, otherwise Prometheus text)")
		traceOut   = fs.String("trace-out", "", "write the stages experiment's span streams here as Chrome trace-event JSON")

		scenarioFile = fs.String("scenario", "", "run a declarative scenario file (YAML/JSON, see scenarios/) instead of -exp")

		listen     = fs.String("listen", "", "serve the live operator surface (/metrics, /capture, /trace, /status) on this address while experiments run, e.g. :8080")
		checkpoint = fs.Duration("checkpoint", time.Duration(live.DefaultInterval), "live surface snapshot cadence (virtual time)")
		linger     = fs.Duration("linger", 0, "keep the live surface serving snapshots this long (real time) after the runs complete")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *scenarioFile != "" {
		if flagWasSet(fs, "exp") {
			fmt.Fprintln(stderr, "prismsim: -scenario and -exp are mutually exclusive (the scenario file names its experiment or topology)")
			return 2
		}
		// The file's workers field is the default; an explicit -parallel wins.
		if !flagWasSet(fs, "parallel") {
			parallel = nil
		}
		return runScenario(*scenarioFile, parallel, func() (*live.Server, func(), bool) {
			return serveLive(*listen, *checkpoint, *linger, stderr)
		}, stdout, stderr)
	}

	// Export flags imply the instrumented experiment.
	if (*metricsOut != "" || *traceOut != "") && *exp == "all" {
		*exp = "stages"
	}

	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	args := experiments.Args{Rates: experiments.ChaosRates(*faultrate), Hosts: *hosts, Containers: *containers}
	if *policy != "all" {
		args.Policy = *policy
	}
	if *placement != "" && *placement != "all" {
		args.Placements = []string{*placement}
	}
	for _, e := range selected {
		if err := args.Validate(e.Name); err != nil {
			fmt.Fprintln(stderr, "prismsim:", err)
			return 2
		}
	}
	if *duration <= 0 {
		fmt.Fprintf(stderr, "prismsim: -duration: must be positive, got %v\n", *duration)
		return 2
	}
	if *warmup < 0 {
		fmt.Fprintf(stderr, "prismsim: -warmup: must not be negative, got %v\n", *warmup)
		return 2
	}

	p := experiments.Default()
	p.Seed = *seed
	p.Duration = sim.Duration(*duration)
	p.Warmup = sim.Duration(*warmup)
	p.BGRate = *bg
	p.HighRate = *high
	p.LoadRate = *load
	p.BGBurst = *burst
	p.Workers = *parallel

	lv, done, ok := serveLive(*listen, *checkpoint, *linger, stderr)
	if !ok {
		return 1
	}
	defer done()
	p.Live = lv

	for _, e := range selected {
		r := e.Run(p, args)
		fmt.Fprintln(stdout, r)
		if err := report(stdout, r, *cdf, *metricsOut, *traceOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// flagWasSet reports whether the user passed the named flag explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// serveLive starts the live operator surface on addr; "" serves none (a
// nil server). done marks the runs finished, keeps serving snapshots for
// linger, then closes the server. ok is false, after the error, when addr
// cannot be bound.
func serveLive(addr string, checkpoint, linger time.Duration, stderr io.Writer) (lv *live.Server, done func(), ok bool) {
	if addr == "" {
		return nil, func() {}, true
	}
	lv = live.NewServer()
	if iv := sim.Duration(checkpoint); iv > 0 {
		lv.Interval = iv
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, nil, false
	}
	// The determinism gates diff stdout across runs; the bound address
	// (often an ephemeral port) goes to stderr.
	fmt.Fprintf(stderr, "live: listening on http://%s\n", ln.Addr())
	go func() {
		if err := lv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "live:", err)
		}
	}()
	return lv, func() {
		lv.Finish()
		if linger > 0 {
			fmt.Fprintf(stderr, "live: runs complete; serving snapshots for %v\n", linger)
			time.Sleep(linger)
		}
		lv.Close()
	}, true
}

// runScenario loads, compiles and executes a scenario file. Malformed
// files exit 2 with the decoder's path-qualified error; a run whose SLO
// assertions fail exits 1 after printing the measured values. A non-nil
// parallel overrides the file's workers field. serve starts the live
// surface once the file has compiled.
func runScenario(path string, parallel *int, serve func() (*live.Server, func(), bool), stdout, stderr io.Writer) int {
	s, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(stderr, "prismsim:", err)
		return 2
	}
	plan, err := scenario.Compile(s)
	if err != nil {
		fmt.Fprintf(stderr, "prismsim: %s: %v\n", path, err)
		return 2
	}
	if parallel != nil {
		plan.Params.Workers = *parallel
	}
	lv, done, ok := serve()
	if !ok {
		return 1
	}
	defer done()
	plan.Params.Live = lv
	res, err := plan.Run()
	if err != nil {
		fmt.Fprintf(stderr, "prismsim: %s: %v\n", path, err)
		return 1
	}
	fmt.Fprint(stdout, res.String())
	if !res.Passed() {
		fmt.Fprintf(stderr, "prismsim: %s: SLO assertions failed\n", path)
		return 1
	}
	return 0
}

// report post-processes a result: -cdf dumps the CDF figures' points, and
// -metrics-out / -trace-out export the stages run's observability data.
func report(w io.Writer, r fmt.Stringer, cdf bool, metricsOut, traceOut string) error {
	switch r := r.(type) {
	case experiments.Fig3Result:
		if cdf {
			fmt.Fprintln(w, "idle CDF (µs, fraction):")
			fmt.Fprint(w, stats.FormatCDF(r.IdleCDF))
			fmt.Fprintln(w, "busy CDF (µs, fraction):")
			fmt.Fprint(w, stats.FormatCDF(r.BusyCDF))
		}
	case experiments.Fig9Result:
		if cdf {
			fmt.Fprintln(w, "idle CDF (µs, fraction):")
			fmt.Fprint(w, stats.FormatCDF(r.IdleCDF))
			for _, row := range r.Rows {
				fmt.Fprintf(w, "%s busy CDF (µs, fraction):\n", row.Mode)
				fmt.Fprint(w, stats.FormatCDF(row.BusyCDF))
			}
		}
	case experiments.PoliciesResult:
		if cdf {
			for _, row := range r.Rows {
				fmt.Fprintf(w, "%s busy CDF (µs, fraction):\n", row.Variant.Label())
				fmt.Fprint(w, stats.FormatCDF(row.BusyCDF))
			}
		}
	case experiments.StagesResult:
		if metricsOut != "" {
			if err := writeMetrics(metricsOut, r.MergedRegistry()); err != nil {
				return err
			}
			fmt.Fprintf(w, "metrics written to %s\n", metricsOut)
		}
		if traceOut != "" {
			if err := writeTrace(traceOut, r.TraceProcesses()); err != nil {
				return err
			}
			fmt.Fprintf(w, "trace written to %s (load in Perfetto / chrome://tracing)\n", traceOut)
		}
	}
	return nil
}

// writeMetrics exports a registry: JSON snapshot for .json paths,
// Prometheus text exposition otherwise.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 5 && path[len(path)-5:] == ".json" {
		b, err := obs.MetricsJSON(reg)
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		return err
	}
	return obs.WritePrometheus(f, reg)
}

// writeTrace exports span streams as Chrome trace-event JSON.
func writeTrace(path string, procs []obs.TraceProcess) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.WriteChromeTrace(f, procs...)
}
