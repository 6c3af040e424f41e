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

func main() {
	var (
		iters   = flag.Int("iters", 9, "loop iterations to capture")
		mode    = flag.String("mode", "both", "vanilla|prism|both")
		asJSON  = flag.Bool("json", false, "emit observations as JSON instead of tables")
		follow  = flag.Bool("follow", false, "tail a live prismsim's /trace NDJSON stream and pretty-print it")
		liveURL = flag.String("url", "http://localhost:8080", "live operator surface base URL for -follow")
	)
	flag.Parse()

	if *follow {
		if err := followTrace(*liveURL, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
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
		fmt.Println(clip(t).Table(title))
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
			fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
			os.Exit(2)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	switch *mode {
	case "vanilla":
		show("Vanilla NAPI (two poll lists, tail insertion)", res.Vanilla)
	case "prism":
		show("PRISM (single poll list, priority head insertion)", res.Prism)
	case "both":
		show("Vanilla NAPI (two poll lists, tail insertion)", res.Vanilla)
		show("PRISM (single poll list, priority head insertion)", res.Prism)
		fmt.Printf("vanilla interleaves batches: %v\nprism streamlined eth->br->veth: %v\n",
			res.VanillaInterleaved, res.PrismStreamlined)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
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
func followTrace(base string, raw bool) error {
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
			fmt.Println(string(line))
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
				fmt.Printf("# process %s\n", name)
			case "thread_name":
				threads[ev.Tid] = name
				fmt.Printf("# thread %d: %s\n", ev.Tid, name)
			}
		case ev.Ph == "X" && ev.Dur != nil:
			fmt.Printf("[%12.3fms] %-16s %-10s pkt=%-7v prio=%v %8.1fµs\n",
				ev.Ts/1000, threads[ev.Tid], ev.Name, ev.Args["pkt"], ev.Args["priority"], *ev.Dur)
		default:
			fmt.Printf("[%12.3fms] %-16s %-10s pkt=%-7v prio=%v\n",
				ev.Ts/1000, threads[ev.Tid], ev.Name, ev.Args["pkt"], ev.Args["priority"])
		}
	}
	return sc.Err()
}
