// Command bench is the repository benchmark: it builds the PRISM
// simulator's five benchmark workloads from a seed, times their set-up and
// their run to the virtual-time horizon, checks that the simulated outputs
// are correct, and reports end-to-end and per-layer metrics by name and
// unit. Layers are measured from outside only: counts come from public
// fields, and one separate traced rep times calls into each layer's
// public entry points. Run it from the repository root through
// bench/run.sh, which builds it from source:
//
//	bash bench/run.sh --workload flood --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -seed 42 -out a.json     # full round-robin pass
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -update-expect
//
// See bench/README.md for the workloads, the metrics and the protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// passRounds is the number of timed round-robin rounds of a full pass.
// Interleaving the workloads spreads slow drift of the host over all of
// them alike; 20 rounds gave medians that agreed within 3-5% across
// passes, where back-to-back runs of one workload drifted 12%.
const passRounds = 20

// minReps is the fewest timed reps one workload run makes, however short
// -seconds is, so its medians rest on several samples.
const minReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload for -seconds and print its result line; empty runs the full round-robin pass")
	seed := fs.Uint64("seed", expectSeed, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long a one-workload run measures")
	trace := fs.Int("trace", 0, "1 adds a traced rep and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "write the full result, with host metadata and per-rep samples, to this JSON file")
	cmp := fs.Bool("compare", false, "compare two result files given as arguments under the BENCHMARK.json bounds")
	update := fs.Bool("update-expect", false, "regenerate "+expectPath+" from one rep of every workload at seed 42")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), sp, stdout, stderr)
	case *update:
		return updateExpect(stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	expected, err := expectedDigests(*seed, fullScale)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	clockNs := clockCost()
	var tallies []*tally
	rounds := passRounds
	if *name == "" {
		tallies = runPass(*seed, fullScale, passRounds, expected)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		t := runWorkload(w, *seed, fullScale, time.Duration(*seconds)*time.Second, *trace == 1, expected)
		tallies, rounds = []*tally{t}, len(t.timed)
	}
	rep := report{Host: currentHost(), Seed: *seed, Rounds: rounds, ClockNs: clockNs}
	for _, t := range tallies {
		rep.Workloads = append(rep.Workloads, t.result(clockNs))
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printReport(stdout, rep)
	code := 0
	if rep.failed() {
		code = 1
	}
	if *name != "" {
		list := sp.EndToEnd
		if *trace == 1 {
			list = sp.PerLayer
		}
		line, err := resultLine(rep.Workloads[0], list)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
		fmt.Fprintln(stdout, line)
	}
	return code
}

// expectedDigests loads the pinned digests when the run is at the seed
// and scale bench/expect.json records; otherwise there is nothing to pin.
func expectedDigests(seed uint64, sc scale) (map[string]digest, error) {
	if seed != expectSeed || sc != fullScale {
		return nil, nil
	}
	return loadExpect(expectPath)
}

func newWorkloadTally(w workload, seed uint64, sc scale, expected map[string]digest) *tally {
	var ref *digest
	if expected != nil {
		d, ok := expected[w.name]
		if !ok {
			t := newTally(w, seed, sc, nil)
			t.fail("no expected digest for " + w.name + " in " + expectPath)
			return t
		}
		ref = &d
	}
	return newTally(w, seed, sc, ref)
}

// runWorkload is the one-workload protocol: a discarded warm-up rep, timed
// reps back to back for the given time, then (when tracing) one traced
// rep, and one rep of the twin workload for the cross-workload gate.
func runWorkload(w workload, seed uint64, sc scale, budget time.Duration, withTrace bool, expected map[string]digest) *tally {
	t := newWorkloadTally(w, seed, sc, expected)
	t.rep(warmup)
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < budget; n++ {
		t.rep(timed)
	}
	if withTrace {
		t.rep(traced)
	}
	if w.twin != "" {
		tw, _ := findWorkload(w.twin)
		tt := newWorkloadTally(tw, seed, sc, expected)
		tt.rep(warmup)
		t.attempts += tt.attempts
		if tt.failed > 0 {
			t.failed += tt.failed
			for _, f := range tt.failures {
				t.failures = append(t.failures, "twin "+w.twin+": "+f)
			}
		} else {
			t.checkTwin(tt.ref)
		}
	}
	return t
}

// runPass is the full protocol: one discarded warm-up round, rounds timed
// round-robin rounds (one rep of every workload each, in fixed order), one
// traced round, then the cross-workload gate.
func runPass(seed uint64, sc scale, rounds int, expected map[string]digest) []*tally {
	tallies := make([]*tally, len(workloads))
	byName := map[string]*tally{}
	for i, w := range workloads {
		tallies[i] = newWorkloadTally(w, seed, sc, expected)
		byName[w.name] = tallies[i]
	}
	for _, kind := range append(append([]repKind{warmup}, repeat(timed, rounds)...), traced) {
		for _, t := range tallies {
			t.rep(kind)
		}
	}
	for _, t := range tallies {
		if t.w.twin != "" {
			t.checkTwin(byName[t.w.twin].ref)
		}
	}
	return tallies
}

func repeat(k repKind, n int) []repKind {
	ks := make([]repKind, n)
	for i := range ks {
		ks[i] = k
	}
	return ks
}

// updateExpect regenerates bench/expect.json from one rep of every
// workload at seed 42, refusing to write when any gate fails.
func updateExpect(stdout, stderr io.Writer) int {
	tallies := runPass(expectSeed, fullScale, 0, nil)
	out := map[string]digest{}
	for _, t := range tallies {
		if t.failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %v\n", t.w.name, t.failures)
			return 1
		}
		out[t.w.name] = *t.ref
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(expectPath, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", expectPath)
	return 0
}

// driverLine is the one-line result a one-workload run prints last.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine renders r's metrics named in list. A listed metric the run
// did not produce, or produced in another unit, is an error.
func resultLine(r result, list []specMetric) (string, error) {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	var errs []error
	for _, sm := range list {
		m, ok := r.Metrics[sm.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", sm.Name))
		case m.Unit != sm.Unit:
			errs = append(errs, fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", sm.Name, m.Unit, sm.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s is not finite", sm.Name))
		default:
			line.Metrics[sm.Name] = m
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return "", err
	}
	return string(buf), errors.Join(errs...)
}

func printReport(w io.Writer, r report) {
	h := r.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, GOGC %s, %s %s; seed %d, %d rounds, clock pair %.1f ns\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.OS, r.Seed, r.Rounds, r.ClockNs)
	for _, res := range r.Workloads {
		fmt.Fprintf(w, "%s: %d reps attempted, %d failed, %d timed\n", res.Name, res.Attempted, res.Failed, len(res.RunS))
		for _, f := range res.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
}
