package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format, which defines exactly three escapes: backslash,
// double-quote, and line feed. Go's %q is close but not conformant — it
// also escapes tabs, control bytes, and non-ASCII runes, which a
// spec-compliant scraper would read back literally.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabels renders a label set in exposition syntax. Empty string
// labels are omitted; priority is always rendered (0 is the best-effort
// class, a real value).
func promLabels(l Labels, extra ...string) string {
	pair := func(name, value string) string {
		return name + `="` + escapeLabelValue(value) + `"`
	}
	parts := make([]string, 0, 4+len(extra)/2)
	if l.Device != "" {
		parts = append(parts, pair("device", l.Device))
	}
	parts = append(parts, pair("priority", fmt.Sprint(l.Priority)))
	if l.Shard != "" {
		parts = append(parts, pair("shard", l.Shard))
	}
	if l.Stage != "" {
		parts = append(parts, pair("stage", l.Stage))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, pair(extra[i], extra[i+1]))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Counters and gauges map directly; histograms
// are exposed as summaries (quantile series plus _sum and _count), the
// natural fit for the quantile-centric tables the paper reports. Output
// order is deterministic: metrics sort by name then labels.
func WritePrometheus(w io.Writer, r *Registry) error {
	var lastType string
	typeLine := func(name, kind string) error {
		if name == lastType {
			return nil
		}
		lastType = name
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, k := range r.sortedCounterKeys() {
		if err := typeLine(k.name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", k.name, promLabels(k.labels), r.counters[k].v); err != nil {
			return err
		}
	}
	lastType = ""
	for _, k := range r.sortedGaugeKeys() {
		if err := typeLine(k.name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %g\n", k.name, promLabels(k.labels), r.gauges[k].v); err != nil {
			return err
		}
	}
	lastType = ""
	for _, k := range r.sortedHistKeys() {
		if err := typeLine(k.name, "summary"); err != nil {
			return err
		}
		h := r.hists[k].h
		for _, q := range []struct {
			q string
			v float64
		}{
			{"0.5", float64(h.Quantile(0.5))},
			{"0.9", float64(h.Quantile(0.9))},
			{"0.99", float64(h.Quantile(0.99))},
		} {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", k.name, promLabels(k.labels, "quantile", q.q), q.v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", k.name, promLabels(k.labels), h.Sum()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", k.name, promLabels(k.labels), h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusText renders the registry to a string.
func PrometheusText(r *Registry) string {
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

// Digests fingerprints the observability output of pipes, passed in shard
// order: the hex SHA-256 of the merged registries' Prometheus text, and of
// the JSON encoding of the merged span stream. The determinism gates
// compare them across worker counts.
func Digests(pipes ...*Pipeline) (metrics, spans string, err error) {
	regs := make([]*Registry, len(pipes))
	streams := make([][]Event, len(pipes))
	for i, p := range pipes {
		regs[i] = p.M
		streams[i] = p.T.Events()
	}
	b, err := json.Marshal(MergeEvents(streams...))
	if err != nil {
		return "", "", err
	}
	return hexSHA256([]byte(PrometheusText(MergeRegistries(regs...)))), hexSHA256(b), nil
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ---------------------------------------------------------------------------
// JSON metrics snapshot
// ---------------------------------------------------------------------------

// LabelSet is the JSON form of Labels.
type LabelSet struct {
	Device   string `json:"device,omitempty"`
	Stage    string `json:"stage,omitempty"`
	Shard    string `json:"shard,omitempty"`
	Priority int    `json:"priority"`
}

func toLabelSet(l Labels) LabelSet {
	return LabelSet{Device: l.Device, Stage: l.Stage, Shard: l.Shard, Priority: l.Priority}
}

// CounterSnapshot is one counter in a snapshot.
type CounterSnapshot struct {
	Name   string   `json:"name"`
	Labels LabelSet `json:"labels"`
	Value  uint64   `json:"value"`
}

// GaugeSnapshot is one gauge in a snapshot.
type GaugeSnapshot struct {
	Name   string   `json:"name"`
	Labels LabelSet `json:"labels"`
	Value  float64  `json:"value"`
}

// HistogramSnapshot is one histogram in a snapshot; times are integer
// nanoseconds of virtual time.
type HistogramSnapshot struct {
	Name   string   `json:"name"`
	Labels LabelSet `json:"labels"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum_ns"`
	Min    int64    `json:"min_ns"`
	Mean   int64    `json:"mean_ns"`
	P50    int64    `json:"p50_ns"`
	P90    int64    `json:"p90_ns"`
	P99    int64    `json:"p99_ns"`
	P999   int64    `json:"p999_ns"`
	Max    int64    `json:"max_ns"`
}

// MetricsSnapshot is the full JSON snapshot of a registry.
type MetricsSnapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot extracts a deterministic (sorted) snapshot of the registry.
func Snapshot(r *Registry) MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	for _, k := range r.sortedCounterKeys() {
		snap.Counters = append(snap.Counters, CounterSnapshot{
			Name: k.name, Labels: toLabelSet(k.labels), Value: r.counters[k].v,
		})
	}
	for _, k := range r.sortedGaugeKeys() {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{
			Name: k.name, Labels: toLabelSet(k.labels), Value: r.gauges[k].v,
		})
	}
	for _, k := range r.sortedHistKeys() {
		h := r.hists[k].h
		s := h.Summarize()
		snap.Histograms = append(snap.Histograms, HistogramSnapshot{
			Name: k.name, Labels: toLabelSet(k.labels),
			Count: s.Count, Sum: h.Sum(),
			Min: int64(s.Min), Mean: int64(s.Mean),
			P50: int64(s.P50), P90: int64(s.P90), P99: int64(s.P99), P999: int64(s.P999),
			Max: int64(s.Max),
		})
	}
	return snap
}

// MetricsJSON marshals the registry snapshot as indented JSON.
func MetricsJSON(r *Registry) ([]byte, error) {
	return json.MarshalIndent(Snapshot(r), "", "  ")
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON (chrome://tracing, Perfetto)
// ---------------------------------------------------------------------------

// TraceProcess groups one event stream under one "process" row of the
// trace viewer — one per engine run (mode or shard).
type TraceProcess struct {
	Name   string
	Events []Event
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEventFor converts one lifecycle event to its trace-viewer form:
// spans become complete ("X") events, instants thread-scoped instant
// ("i") events. Timestamps are virtual-time microseconds.
func chromeEventFor(ev Event, pid, tid int) chromeEvent {
	ce := chromeEvent{
		Name: ev.Stage,
		Cat:  "lifecycle",
		Ts:   float64(ev.Start) / 1e3,
		Pid:  pid,
		Tid:  tid,
	}
	args := map[string]any{"priority": ev.Priority}
	if ev.Pkt != NoPacket {
		args["pkt"] = ev.Pkt
	}
	ce.Args = args
	if ev.Kind == KindSpan {
		ce.Ph = "X"
		ce.Cat = "stage"
		dur := float64(ev.Duration()) / 1e3
		ce.Dur = &dur
	} else {
		ce.Ph = "i"
		ce.S = "t"
	}
	return ce
}

// ChromeTrace renders event streams as Chrome trace-event JSON: spans
// become complete ("X") events, instants become thread-scoped instant
// ("i") events, each process (engine run) gets a process_name metadata
// row and each device a named thread row. Load the output in Perfetto or
// chrome://tracing. Timestamps are virtual-time microseconds.
func ChromeTrace(procs ...TraceProcess) ([]byte, error) {
	file := chromeTraceFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	for pi, proc := range procs {
		pid := pi + 1
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": proc.Name},
		})
		// Deterministic thread IDs: devices sorted by name.
		devSet := map[string]bool{}
		for _, ev := range proc.Events {
			devSet[ev.Device] = true
		}
		devs := make([]string, 0, len(devSet))
		for d := range devSet {
			devs = append(devs, d)
		}
		sort.Strings(devs)
		tids := make(map[string]int, len(devs))
		for i, d := range devs {
			tids[d] = i + 1
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
				Args: map[string]any{"name": d},
			})
		}
		events := append([]Event(nil), proc.Events...)
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].Start != events[j].Start {
				return events[i].Start < events[j].Start
			}
			return events[i].Seq < events[j].Seq
		})
		for _, ev := range events {
			file.TraceEvents = append(file.TraceEvents, chromeEventFor(ev, pid, tids[ev.Device]))
		}
	}
	return json.MarshalIndent(file, "", " ")
}

// WriteChromeTrace writes the Chrome trace JSON to w.
func WriteChromeTrace(w io.Writer, procs ...TraceProcess) error {
	b, err := ChromeTrace(procs...)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
