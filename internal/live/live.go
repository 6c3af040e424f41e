// Package live is the simulator's operator surface: an HTTP server that
// exposes a running simulation's observability streams while it executes —
// live Prometheus metrics, streaming pcap capture you can pipe straight
// into Wireshark, incremental Chrome-trace spans as NDJSON, and SSE run
// progress. It is the consumer half of the obs.Sink seam: the simulation
// side (testbed/cluster checkpoints, host taps) hands over immutable
// snapshots and frame copies at quiescent points, and everything here —
// rendering, buffering, HTTP delivery — happens off the simulation's
// critical path behind a mutex, so enabling the surface never perturbs
// the deterministic event schedule. Slow or stalled HTTP consumers lose
// data (bounded buffers, drop counters) rather than exert backpressure.
//
// Endpoints:
//
//	/metrics   Prometheus text exposition of the latest checkpoint snapshot
//	/metrics.json  the same snapshot as JSON
//	/capture   streaming pcap; ?container=<name>&prio=<hi|lo>&host=<h>&dir=<rx|tx>&max=<n>
//	/trace     Chrome trace events as NDJSON, backlog then live
//	/status    SSE run progress (virtual time, pkts/sec, fabric utilization,
//	           parallel-runtime windows and barrier wait)
package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/sim"
)

// DefaultInterval is the default virtual-time checkpoint cadence.
const DefaultInterval = 10 * sim.Millisecond

// maxTraceBacklog bounds the retained NDJSON trace bytes; older chunks
// are discarded (and counted) once the backlog exceeds it.
const maxTraceBacklog = 8 << 20

// Status is one run-progress sample, published at every checkpoint and
// streamed over /status as SSE.
type Status struct {
	Run         string `json:"run"`
	Done        bool   `json:"done"`
	VirtualNs   int64  `json:"virtual_ns"`
	HorizonNs   int64  `json:"horizon_ns"`
	Checkpoints uint64 `json:"checkpoints"`
	Delivered   uint64 `json:"delivered"`
	// PktsPerSec is the delivery rate over the last checkpoint interval,
	// in packets per second of virtual time.
	PktsPerSec float64 `json:"pkts_per_sec"`
	// TraceDropped counts NDJSON backlog chunks discarded under the
	// retention bound; CaptureDropped counts frames dropped on slow
	// capture subscribers.
	TraceDropped   uint64 `json:"trace_dropped,omitempty"`
	CaptureDropped uint64 `json:"capture_dropped,omitempty"`
	// CaptureSubs breaks CaptureDropped down per live /capture stream, so
	// an operator can tell which consumer is falling behind.
	CaptureSubs []CaptureSub `json:"capture_subs,omitempty"`
	// FabricUtil is per-port fabric transmit occupancy (cluster runs).
	FabricUtil map[string]float64 `json:"fabric_util,omitempty"`
	// Par is the parallel runtime's self-report for sharded runs: windows,
	// active shard-windows and the coordinator's barrier wait so far.
	Par *par.Stats `json:"par,omitempty"`
}

// Server implements obs.Sink over HTTP. One Server serves a whole
// prismsim invocation; experiments publish checkpoints, frames and status
// into it as they run. All methods are safe for concurrent use — chaos
// grid points run in parallel and publish interleaved, last writer wins.
type Server struct {
	// Interval is the virtual-time checkpoint cadence runners should use
	// when wiring their SetCheckpoint calls.
	Interval sim.Time

	hub hub

	mu       sync.Mutex
	status   Status
	fabric   map[string]float64
	par      *par.Stats
	prom     []byte
	metaJSON []byte
	chrome   *obs.ChromeStream

	// backlog retains recent NDJSON trace chunks for late /trace joiners.
	backlog      [][]byte
	backlogBytes int

	statusSubs map[chan []byte]bool
	traceSubs  map[chan []byte]bool
	done       bool

	// rate bookkeeping for PktsPerSec.
	lastAt        sim.Time
	lastDelivered uint64

	httpSrv *http.Server
}

// NewServer returns a live surface with the default checkpoint interval
// and no run attached.
func NewServer() *Server {
	s := &Server{
		Interval:   DefaultInterval,
		chrome:     obs.NewChromeStream("prism-live"),
		statusSubs: make(map[chan []byte]bool),
		traceSubs:  make(map[chan []byte]bool),
	}
	s.hub.init()
	return s
}

// SetRun labels the run whose checkpoints follow and resets the rate
// window. horizon is the run's virtual end time, for progress reporting.
func (s *Server) SetRun(name string, horizon sim.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status.Run = name
	s.status.HorizonNs = int64(horizon)
	s.lastAt = 0
	s.lastDelivered = 0
	s.fabric = nil
	s.par = nil
}

// SetClassifier installs the frame → (container, priority) resolver the
// capture selectors use. The function runs on simulation shard goroutines
// and must be thread-safe and read-only.
func (s *Server) SetClassifier(fn Classify) {
	if s == nil {
		return
	}
	s.hub.setClassify(fn)
}

// PublishFabric records per-port fabric utilization for the next status
// sample. Call it just before the checkpoint that should carry it.
func (s *Server) PublishFabric(util map[string]float64) {
	if s == nil {
		return
	}
	cp := make(map[string]float64, len(util))
	for k, v := range util {
		cp[k] = v
	}
	s.mu.Lock()
	s.fabric = cp
	s.mu.Unlock()
}

// PublishPar records the parallel runtime's counters for the next status
// sample. Like PublishFabric, call it just before the checkpoint.
func (s *Server) PublishPar(st par.Stats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.par = &st
	s.mu.Unlock()
}

// Checkpoint implements obs.Sink: it renders the snapshot into every
// serving format and wakes the streams. The registry and delta are owned
// by the server from here on.
func (s *Server) Checkpoint(at sim.Time, reg *obs.Registry, delta []obs.Event) {
	if s == nil {
		return
	}
	prom := []byte(obs.PrometheusText(reg))
	metaJSON, err := obs.MetricsJSON(reg)
	if err != nil {
		metaJSON = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	delivered := reg.CounterValue("prism_delivered_total", obs.Labels{})

	s.mu.Lock()
	s.prom = prom
	s.metaJSON = metaJSON
	s.status.VirtualNs = int64(at)
	s.status.Checkpoints++
	s.status.Delivered = delivered
	if at > s.lastAt && delivered >= s.lastDelivered {
		dt := float64(at-s.lastAt) / float64(sim.Second)
		s.status.PktsPerSec = float64(delivered-s.lastDelivered) / dt
	}
	s.lastAt, s.lastDelivered = at, delivered
	s.status.FabricUtil = s.fabric
	s.status.Par = s.par
	s.status.CaptureDropped = s.hub.droppedCount()
	s.status.CaptureSubs = s.hub.subscriberStats()

	// Render the trace delta as one NDJSON chunk, retain it, wake readers.
	// The first chunk carries the process metadata row even with no events.
	var buf bytes.Buffer
	var chunk []byte
	if err := s.chrome.Append(&buf, delta); err == nil {
		chunk = buf.Bytes()
	}
	if len(chunk) > 0 {
		s.backlog = append(s.backlog, chunk)
		s.backlogBytes += len(chunk)
		for s.backlogBytes > maxTraceBacklog && len(s.backlog) > 1 {
			s.backlogBytes -= len(s.backlog[0])
			s.backlog = s.backlog[1:]
			s.status.TraceDropped++
		}
		for ch := range s.traceSubs {
			select {
			case ch <- chunk:
			default:
			}
		}
	}
	s.broadcastStatusLocked()
	s.mu.Unlock()
}

func (s *Server) broadcastStatusLocked() {
	b, err := json.Marshal(s.status)
	if err != nil {
		return
	}
	for ch := range s.statusSubs {
		select {
		case ch <- b:
		default:
		}
	}
}

// Tap observes one wire frame (the cluster.SetTap signature). It is the
// simulation-side entry point of /capture: free (one atomic load) while
// nobody is capturing, and copy + non-blocking fan-out when someone is.
func (s *Server) Tap(host string, now sim.Time, frame []byte, tx bool) {
	if s == nil {
		return
	}
	s.hub.tap(host, now, frame, tx)
}

// HostTap adapts Tap to the overlay.Host.Tap signature for single-host
// rigs.
func (s *Server) HostTap(host string) func(now sim.Time, frame []byte, tx bool) {
	return func(now sim.Time, frame []byte, tx bool) { s.Tap(host, now, frame, tx) }
}

// Finish marks the run set complete: streams terminate after delivering
// what they have, so bounded consumers (curl of /capture, -follow) see
// EOF instead of hanging. The snapshot endpoints keep serving.
func (s *Server) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.status.Done = true
		s.broadcastStatusLocked()
		for ch := range s.statusSubs {
			close(ch)
			delete(s.statusSubs, ch)
		}
		for ch := range s.traceSubs {
			close(ch)
			delete(s.traceSubs, ch)
		}
	}
	s.mu.Unlock()
	s.hub.closeAll()
}

// Handler returns the operator surface's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/capture", s.handleCapture)
	return mux
}

// Serve serves the operator surface on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Close tears the HTTP server down (after Finish has ended the streams).
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `prism live operator surface
  /metrics        Prometheus text exposition (latest checkpoint)
  /metrics.json   the same snapshot as JSON
  /status         SSE run progress
  /trace          Chrome trace events, NDJSON
  /capture        streaming pcap; ?container=<name>&prio=<hi|lo>&host=<h>&dir=<rx|tx>&max=<n>
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := s.prom
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if len(body) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "# no checkpoint yet")
		return
	}
	w.Write(body)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := s.metaJSON
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if len(body) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"no checkpoint yet"}`)
		return
	}
	w.Write(body)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	s.mu.Lock()
	cur, _ := json.Marshal(s.status)
	var ch chan []byte
	if !s.done {
		ch = make(chan []byte, 16)
		s.statusSubs[ch] = true
	}
	s.mu.Unlock()

	writeEvent := func(b []byte) bool {
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !writeEvent(cur) || ch == nil {
		s.dropStatusSub(ch)
		return
	}
	defer s.dropStatusSub(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case b, open := <-ch:
			if !open {
				return
			}
			if !writeEvent(b) {
				return
			}
		}
	}
}

func (s *Server) dropStatusSub(ch chan []byte) {
	if ch == nil {
		return
	}
	s.mu.Lock()
	delete(s.statusSubs, ch)
	s.mu.Unlock()
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")

	s.mu.Lock()
	backlog := make([][]byte, len(s.backlog))
	copy(backlog, s.backlog)
	var ch chan []byte
	if !s.done {
		ch = make(chan []byte, 64)
		s.traceSubs[ch] = true
	}
	s.mu.Unlock()

	for _, chunk := range backlog {
		if _, err := w.Write(chunk); err != nil {
			s.dropTraceSub(ch)
			return
		}
	}
	fl.Flush()
	if ch == nil {
		return
	}
	defer s.dropTraceSub(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case chunk, open := <-ch:
			if !open {
				return
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) dropTraceSub(ch chan []byte) {
	if ch == nil {
		return
	}
	s.mu.Lock()
	delete(s.traceSubs, ch)
	s.mu.Unlock()
}

// parseCaptureQuery builds a selector from /capture query parameters.
func parseCaptureQuery(r *http.Request) (selector, int, error) {
	q := r.URL.Query()
	sel := selector{
		container: q.Get("container"),
		host:      q.Get("host"),
		prio:      q.Get("prio"),
		dir:       q.Get("dir"),
	}
	switch sel.prio {
	case "", "any", "hi", "lo":
	default:
		return sel, 0, fmt.Errorf("prio must be hi, lo or any, got %q", sel.prio)
	}
	switch sel.dir {
	case "", "rx", "tx":
	default:
		return sel, 0, fmt.Errorf("dir must be rx or tx, got %q", sel.dir)
	}
	max := 0
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return sel, 0, fmt.Errorf("max must be a non-negative integer, got %q", v)
		}
		max = n
	}
	return sel, max, nil
}
