// Command prismtrace prints Fig.-6-style NAPI poll-order traces: the
// sequence of device polls and poll-list states for a saturated overlay
// pipeline, under the vanilla and PRISM engines. It is the simulator's
// equivalent of the paper's eBPF tracing.
//
// Usage:
//
//	prismtrace               # both engines, 9 iterations
//	prismtrace -iters 20 -mode prism
//	prismtrace -json         # machine-readable observations
//
// With -follow, prismtrace instead tails a live prismsim's /trace
// endpoint (see prismsim -listen): the NDJSON Chrome-trace stream is
// pretty-printed one event per line as checkpoints flush, until the run
// finishes or the connection drops. Combine with -json to pass the raw
// NDJSON through unformatted.
//
//	prismtrace -follow -url http://localhost:8080
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"prism/internal/experiments"
	"prism/internal/napi"
)

// jsonObservation is the machine-readable form of one poll iteration;
// times are integer nanoseconds of virtual time.
type jsonObservation struct {
	Iteration uint64   `json:"iteration"`
	TimeNs    int64    `json:"time_ns"`
	Device    string   `json:"device"`
	PollList  []string `json:"poll_list"`
}

func toJSON(obs []napi.PollObservation) []jsonObservation {
	out := make([]jsonObservation, len(obs))
	for i, o := range obs {
		out[i] = jsonObservation{
			Iteration: o.Iteration,
			TimeNs:    int64(o.Time),
			Device:    o.Device,
			PollList:  o.PollList,
		}
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses argv, prints the traces and returns the process exit status:
// 0 on success, 1 when -follow loses its stream, 2 on bad flags.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		iters   = fs.Int("iters", 9, "loop iterations to capture")
		mode    = fs.String("mode", "both", "vanilla|prism|both")
		asJSON  = fs.Bool("json", false, "emit observations as JSON instead of tables")
		follow  = fs.Bool("follow", false, "tail a live prismsim's /trace NDJSON stream and pretty-print it")
		liveURL = fs.String("url", "http://localhost:8080", "live operator surface base URL for -follow")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *iters < 0 {
		fmt.Fprintf(stderr, "prismtrace: -iters %d: must not be negative\n", *iters)
		return 2
	}

	if *follow {
		if err := followTrace(*liveURL, *asJSON, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	p := experiments.Default()
	res := experiments.Fig6(p)

	clip := func(t experiments.PollTrace) experiments.PollTrace {
		if len(t) > *iters {
			t = t[:*iters]
		}
		return t
	}
	show := func(title string, t experiments.PollTrace) {
		fmt.Fprintln(stdout, clip(t).Table(title))
	}

	if *asJSON {
		out := map[string]any{}
		switch *mode {
		case "vanilla":
			out["vanilla"] = toJSON(clip(res.Vanilla))
		case "prism":
			out["prism"] = toJSON(clip(res.Prism))
		case "both":
			out["vanilla"] = toJSON(clip(res.Vanilla))
			out["prism"] = toJSON(clip(res.Prism))
			out["vanilla_interleaved"] = res.VanillaInterleaved
			out["prism_streamlined"] = res.PrismStreamlined
		default:
			fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
			return 2
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	switch *mode {
	case "vanilla":
		show("Vanilla NAPI (two poll lists, tail insertion)", res.Vanilla)
	case "prism":
		show("PRISM (single poll list, priority head insertion)", res.Prism)
	case "both":
		show("Vanilla NAPI (two poll lists, tail insertion)", res.Vanilla)
		show("PRISM (single poll list, priority head insertion)", res.Prism)
		fmt.Fprintf(stdout, "vanilla interleaves batches: %v\nprism streamlined eth->br->veth: %v\n",
			res.VanillaInterleaved, res.PrismStreamlined)
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
		return 2
	}
	return 0
}

// traceEvent is the subset of a Chrome trace event -follow renders.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// followTrace tails the live surface's /trace NDJSON stream. Metadata
// rows name the process and per-device threads; span and instant rows
// are printed as they arrive, until the run finishes (the server closes
// the stream after its Finish) or the connection drops.
func followTrace(base string, raw bool, stdout io.Writer) error {
	url := strings.TrimRight(base, "/") + "/trace"
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}

	threads := map[int]string{} // tid → device (thread_name metadata)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if raw {
			fmt.Fprintln(stdout, string(line))
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("trace line %q: %w", line, err)
		}
		switch {
		case ev.Ph == "M":
			name, _ := ev.Args["name"].(string)
			switch ev.Name {
			case "process_name":
				fmt.Fprintf(stdout, "# process %s\n", name)
			case "thread_name":
				threads[ev.Tid] = name
				fmt.Fprintf(stdout, "# thread %d: %s\n", ev.Tid, name)
			}
		case ev.Ph == "X" && ev.Dur != nil:
			fmt.Fprintf(stdout, "[%12.3fms] %-16s %-10s pkt=%-7v prio=%v %8.1fµs\n",
				ev.Ts/1000, threads[ev.Tid], ev.Name, ev.Args["pkt"], ev.Args["priority"], *ev.Dur)
		default:
			fmt.Fprintf(stdout, "[%12.3fms] %-16s %-10s pkt=%-7v prio=%v\n",
				ev.Ts/1000, threads[ev.Tid], ev.Name, ev.Args["pkt"], ev.Args["priority"])
		}
	}
	return sc.Err()
}
