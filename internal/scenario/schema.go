package scenario

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"prism/internal/fault"
	"prism/internal/sim"
	"prism/internal/softirq"
)

// Version is the schema version this package decodes; the `scenario:`
// field of every file must match it.
const Version = "v1"

// Experiment kinds the scenario layer dispatches to the paper-figure
// harnesses in internal/experiments.
var experimentKinds = []string{
	"fig3", "fig8", "fig9", "fig10", "fig11", "stages", "policies", "chaos", "cluster",
}

// Scenario is one fully decoded, validated scenario document.
type Scenario struct {
	Name        string
	Description string

	Seed     uint64
	Warmup   sim.Time
	Duration sim.Time
	Workers  int

	// Traffic carries the shared rate/cost knobs (experiments.Params
	// overrides); nil fields keep the calibrated defaults.
	Traffic TrafficParams

	// Experiment dispatches to a paper-figure harness; Topology +
	// Workload describe a custom run. Exactly one of the two is set.
	Experiment *Experiment
	Topology   *Topology
	Workload   []Group

	// Link overrides the wire cost model (the WiFi-AP-style asymmetric
	// link point).
	Link *Link
	// Faults is the deterministic fault plane configuration, including
	// start/stop windows (custom monolithic runs only).
	Faults *Faults
	// SLOs are the declarative assertions checked after the run.
	SLOs []SLO
	// Conservation requires the post-run packet-conservation / zero-leak
	// invariant check (custom monolithic and cluster runs).
	Conservation bool
}

// TrafficParams are the experiments.Params overrides a scenario may set.
// Zero values defer to experiments.Default().
type TrafficParams struct {
	HighRate   float64
	BGRate     float64
	LoadRate   float64
	BGBurst    int
	EchoCost   sim.Time
	SinkCost   sim.Time
	DriverPrio bool
}

// Experiment selects a paper-figure harness plus its grid knobs.
type Experiment struct {
	Kind string

	// Loads is fig11's background-load grid (pps).
	Loads []float64
	// Rates is the chaos fault-rate ladder.
	Rates []float64
	// Policy filters the policies ablation to one registry policy.
	Policy string
	// Hosts / Containers / Placements size the cluster experiment.
	Hosts      int
	Containers int
	Placements []string
}

// Topology describes a custom run's machine layout.
type Topology struct {
	Split     string // monolithic | cluster
	Mode      string // vanilla | prism-batch | prism-sync
	Policy    string // softirq poll policy registry name ("" = from mode)
	RxQueues  int
	BatchSize int
	Shed      bool

	// Cluster-only fields.
	Hosts     int
	Racks     int
	HostCap   int
	Placement string
	Admission *Admission
}

// Admission is the per-host ingress token bucket.
type Admission struct {
	Rate      float64
	Burst     int
	HiReserve float64
}

// Link overrides the wire cost model.
type Link struct {
	WireLatency  sim.Time
	BandwidthBps int64
}

// Group is one traffic workload: an echo (request/response latency flow),
// a flood (open-loop UDP background), or a tcp stream (elephant flow).
type Group struct {
	Name     string
	Type     string // echo | flood | tcp
	Priority string // hi | lo
	Rate     float64
	Port     int

	// Senders fans the flood out over N synchronized-destination sources
	// (incast); Count replicates the group across cluster containers.
	Senders int
	Count   int

	// Flood shaping.
	Burst      int
	Poisson    bool
	poissonSet bool
	JitterFrac float64
	jitterSet  bool
	PayloadLen int

	// TCP stream shaping.
	MsgSize int

	// Ingress pins the cluster flow's ingress host (-1 = deterministic
	// spread).
	Ingress int

	// Phases scale the group's rate over time (diurnal load); StopAt
	// ceases emission early.
	Phases []RatePhase
	StopAt sim.Time
}

// RatePhase multiplies the group's base rate from time At onward.
type RatePhase struct {
	At    sim.Time
	RateX float64
}

// Faults configures the deterministic fault plane, flat or windowed.
type Faults struct {
	Seed    uint64
	seedSet bool
	Shed    bool
	Rate    float64
	Classes fault.Class
	Phases  []FaultPhase
}

// FaultPhase is one entry of the fault timeline: either a rate window
// (Rate/Classes over [From, Until)) or — on cluster topologies — a
// scripted failure event (Kind host_crash / tor_link_down at From,
// restored at Until).
type FaultPhase struct {
	From    sim.Time
	Until   sim.Time
	Rate    float64
	Classes fault.Class

	// Kind, when set, makes this a scripted cluster failure instead of a
	// rate window; Host / Tor pick the victim.
	Kind string
	Host int
	Tor  int
}

var groupNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Load reads and decodes a scenario file. Errors are prefixed with the
// file path, so the CLI's rejection message is path-qualified end to end.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse decodes a scenario document (YAML subset or JSON).
func Parse(data []byte) (*Scenario, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	root, err := asObj("scenario", tree)
	if err != nil {
		return nil, err
	}
	return decodeScenario(root)
}

func decodeScenario(root *obj) (*Scenario, error) {
	s := &Scenario{}
	version, err := root.strRequired("scenario")
	if err != nil {
		return nil, fmt.Errorf("scenario.scenario: schema version missing (`scenario: %s` must be the document's version field)", Version)
	}
	if version != Version {
		return nil, fmt.Errorf("scenario.scenario: unsupported version %q (this build reads %s)", version, Version)
	}
	if s.Name, err = root.str("name", ""); err != nil {
		return nil, err
	}
	if s.Description, err = root.str("description", ""); err != nil {
		return nil, err
	}
	seed, err := root.integer("seed", 42)
	if err != nil {
		return nil, err
	}
	if seed < 0 {
		return nil, root.errf("seed: must not be negative")
	}
	s.Seed = uint64(seed)
	if s.Warmup, err = root.duration("warmup", 100*sim.Millisecond); err != nil {
		return nil, err
	}
	if s.Duration, err = root.duration("duration", sim.Second); err != nil {
		return nil, err
	}
	if s.Duration <= 0 {
		return nil, root.errf("duration: must be positive")
	}
	workers, err := root.integer("workers", 1)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, root.errf("workers: must be >= 1")
	}
	s.Workers = int(workers)

	if err := decodeTraffic(root, &s.Traffic); err != nil {
		return nil, err
	}
	if s.Experiment, err = decodeExperiment(root); err != nil {
		return nil, err
	}
	if s.Topology, err = decodeTopology(root); err != nil {
		return nil, err
	}
	if s.Workload, err = decodeWorkload(root); err != nil {
		return nil, err
	}
	if s.Link, err = decodeLink(root); err != nil {
		return nil, err
	}
	if s.Faults, err = decodeFaults(root); err != nil {
		return nil, err
	}
	if s.SLOs, err = decodeSLOs(root); err != nil {
		return nil, err
	}
	consv, err := root.enum("conservation", "", "", "required")
	if err != nil {
		return nil, err
	}
	s.Conservation = consv == "required"

	if err := root.finish(); err != nil {
		return nil, err
	}
	return s, validate(s)
}

func decodeTraffic(root *obj, t *TrafficParams) error {
	o, err := root.child("traffic")
	if err != nil || o == nil {
		return err
	}
	if t.HighRate, err = o.float("high_rate", 0); err != nil {
		return err
	}
	if t.BGRate, err = o.float("bg_rate", 0); err != nil {
		return err
	}
	if t.LoadRate, err = o.float("load_rate", 0); err != nil {
		return err
	}
	burst, err := o.integer("bg_burst", 0)
	if err != nil {
		return err
	}
	t.BGBurst = int(burst)
	if t.EchoCost, err = o.duration("echo_cost", 0); err != nil {
		return err
	}
	if t.SinkCost, err = o.duration("sink_cost", 0); err != nil {
		return err
	}
	if t.DriverPrio, err = o.boolean("driver_prio", false); err != nil {
		return err
	}
	return o.finish()
}

func decodeExperiment(root *obj) (*Experiment, error) {
	o, err := root.child("experiment")
	if err != nil || o == nil {
		return nil, err
	}
	e := &Experiment{}
	if e.Kind, err = o.enum("kind", "", experimentKinds...); err != nil {
		return nil, err
	}
	if e.Kind == "" {
		return nil, o.errf("kind: required field missing")
	}
	if e.Loads, err = o.floatList("loads"); err != nil {
		return nil, err
	}
	if e.Rates, err = o.floatList("rates"); err != nil {
		return nil, err
	}
	if e.Policy, err = o.str("policy", ""); err != nil {
		return nil, err
	}
	hosts, err := o.integer("hosts", 0)
	if err != nil {
		return nil, err
	}
	e.Hosts = int(hosts)
	containers, err := o.integer("containers", 0)
	if err != nil {
		return nil, err
	}
	e.Containers = int(containers)
	if e.Placements, err = o.strList("placements"); err != nil {
		return nil, err
	}
	if err := o.finish(); err != nil {
		return nil, err
	}
	return e, validateExperiment(o, e)
}

func validateExperiment(o *obj, e *Experiment) error {
	deny := func(field, kinds string, bad bool) error {
		if bad {
			return fmt.Errorf("%s: only valid for the %s experiment", o.fieldPath(field), kinds)
		}
		return nil
	}
	if err := deny("loads", "fig11", len(e.Loads) > 0 && e.Kind != "fig11"); err != nil {
		return err
	}
	if err := deny("rates", "chaos", len(e.Rates) > 0 && e.Kind != "chaos"); err != nil {
		return err
	}
	if err := deny("policy", "policies", e.Policy != "" && e.Kind != "policies"); err != nil {
		return err
	}
	clusterSized := e.Hosts > 0 || e.Containers > 0 || len(e.Placements) > 0
	if err := deny("hosts", "cluster", clusterSized && e.Kind != "cluster"); err != nil {
		return err
	}
	if e.Policy != "" {
		if err := knownPolicy(o.fieldPath("policy"), e.Policy); err != nil {
			return err
		}
	}
	for i, r := range e.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("%s[%d]: fault rate %v outside [0, 1]", o.fieldPath("rates"), i, r)
		}
	}
	return nil
}

func decodeTopology(root *obj) (*Topology, error) {
	o, err := root.child("topology")
	if err != nil || o == nil {
		return nil, err
	}
	t := &Topology{}
	if t.Split, err = o.enum("split", "monolithic", "monolithic", "cluster"); err != nil {
		return nil, err
	}
	if t.Mode, err = o.enum("mode", "prism-sync", "vanilla", "prism-batch", "prism-sync"); err != nil {
		return nil, err
	}
	if t.Policy, err = o.str("policy", ""); err != nil {
		return nil, err
	}
	if t.Policy != "" {
		if err := knownPolicy(o.fieldPath("policy"), t.Policy); err != nil {
			return nil, err
		}
	}
	queues, err := o.integer("rx_queues", 0)
	if err != nil {
		return nil, err
	}
	t.RxQueues = int(queues)
	batch, err := o.integer("batch_size", 0)
	if err != nil {
		return nil, err
	}
	t.BatchSize = int(batch)
	if t.Shed, err = o.boolean("shed", false); err != nil {
		return nil, err
	}
	hosts, err := o.integer("hosts", 0)
	if err != nil {
		return nil, err
	}
	t.Hosts = int(hosts)
	racks, err := o.integer("racks", 0)
	if err != nil {
		return nil, err
	}
	t.Racks = int(racks)
	cap_, err := o.integer("host_cap", 0)
	if err != nil {
		return nil, err
	}
	t.HostCap = int(cap_)
	if t.Placement, err = o.enum("placement", "", "", "spread", "pack", "priority"); err != nil {
		return nil, err
	}
	adm, err := o.child("admission")
	if err != nil {
		return nil, err
	}
	if adm != nil {
		a := &Admission{}
		if a.Rate, err = adm.float("rate", 0); err != nil {
			return nil, err
		}
		burst, berr := adm.integer("burst", 0)
		if berr != nil {
			return nil, berr
		}
		a.Burst = int(burst)
		if a.HiReserve, err = adm.float("hi_reserve", 0); err != nil {
			return nil, err
		}
		if err := adm.finish(); err != nil {
			return nil, err
		}
		t.Admission = a
	}
	if err := o.finish(); err != nil {
		return nil, err
	}

	cluster := t.Split == "cluster"
	if !cluster {
		if t.Hosts > 0 || t.Racks > 0 || t.HostCap > 0 || t.Placement != "" || t.Admission != nil {
			return nil, o.errf("hosts/racks/host_cap/placement/admission: only valid with split: cluster")
		}
	}
	if cluster && (t.RxQueues > 0 || t.BatchSize > 0) {
		return nil, o.errf("rx_queues/batch_size: not valid with split: cluster (set them on the host template via policy knobs)")
	}
	return t, nil
}

func knownPolicy(path, name string) error {
	known := softirq.Policies()
	for _, p := range known {
		if p == name {
			return nil
		}
	}
	sort.Strings(known)
	return fmt.Errorf("%s: unknown poll policy %q (valid: %s)", path, name, strings.Join(known, ", "))
}

func decodeWorkload(root *obj) ([]Group, error) {
	items, err := root.children("workload")
	if err != nil || items == nil {
		return nil, err
	}
	groups := make([]Group, len(items))
	names := map[string]bool{}
	for i, o := range items {
		g, gerr := decodeGroup(o)
		if gerr != nil {
			return nil, gerr
		}
		if names[g.Name] {
			return nil, o.errf("name: duplicate group name %q", g.Name)
		}
		names[g.Name] = true
		groups[i] = g
	}
	return groups, nil
}

func decodeGroup(o *obj) (Group, error) {
	g := Group{Ingress: -1}
	var err error
	if g.Name, err = o.strRequired("name"); err != nil {
		return g, err
	}
	if !groupNameRe.MatchString(g.Name) {
		return g, o.errf("name: %q must match %s (it names the group's metrics)", g.Name, groupNameRe)
	}
	if g.Type, err = o.enum("type", "", "echo", "flood", "tcp"); err != nil {
		return g, err
	}
	if g.Type == "" {
		return g, o.errf("type: required field missing")
	}
	if g.Priority, err = o.enum("priority", "lo", "hi", "lo"); err != nil {
		return g, err
	}
	if g.Rate, err = o.float("rate", 0); err != nil {
		return g, err
	}
	if g.Rate <= 0 {
		return g, o.errf("rate: must be positive")
	}
	port, err := o.integer("port", 0)
	if err != nil {
		return g, err
	}
	if port < 0 || port > 65535 {
		return g, o.errf("port: %d outside [0, 65535]", port)
	}
	g.Port = int(port)
	senders, err := o.integer("senders", 1)
	if err != nil {
		return g, err
	}
	if senders < 1 {
		return g, o.errf("senders: must be >= 1")
	}
	g.Senders = int(senders)
	count, err := o.integer("count", 1)
	if err != nil {
		return g, err
	}
	if count < 1 {
		return g, o.errf("count: must be >= 1")
	}
	g.Count = int(count)
	burst, err := o.integer("burst", 0)
	if err != nil {
		return g, err
	}
	g.Burst = int(burst)
	if _, ok := o.m["poisson"]; ok {
		g.poissonSet = true
	}
	if g.Poisson, err = o.boolean("poisson", false); err != nil {
		return g, err
	}
	if _, ok := o.m["jitter_frac"]; ok {
		g.jitterSet = true
	}
	if g.JitterFrac, err = o.float("jitter_frac", 0); err != nil {
		return g, err
	}
	payload, err := o.integer("payload_len", 0)
	if err != nil {
		return g, err
	}
	g.PayloadLen = int(payload)
	msgSize, err := o.integer("msg_size", 0)
	if err != nil {
		return g, err
	}
	g.MsgSize = int(msgSize)
	ingress, err := o.integer("ingress", -1)
	if err != nil {
		return g, err
	}
	g.Ingress = int(ingress)
	if g.StopAt, err = o.duration("stop_at", 0); err != nil {
		return g, err
	}
	phases, err := o.children("phases")
	if err != nil {
		return g, err
	}
	for _, po := range phases {
		var ph RatePhase
		if ph.At, err = po.duration("at", 0); err != nil {
			return g, err
		}
		if ph.RateX, err = po.float("rate_x", 0); err != nil {
			return g, err
		}
		if ph.RateX <= 0 {
			return g, po.errf("rate_x: must be positive (use stop_at to end a flow)")
		}
		if err = po.finish(); err != nil {
			return g, err
		}
		if n := len(g.Phases); n > 0 && ph.At <= g.Phases[n-1].At {
			return g, po.errf("at: phases must be in strictly increasing time order")
		}
		g.Phases = append(g.Phases, ph)
	}
	if err := o.finish(); err != nil {
		return g, err
	}

	if g.Type != "flood" && (g.Burst > 0 || g.Senders > 1 || g.poissonSet || g.jitterSet) {
		return g, o.errf("burst/senders/poisson/jitter_frac: only valid for type: flood")
	}
	if g.Type != "tcp" && g.MsgSize > 0 {
		return g, o.errf("msg_size: only valid for type: tcp")
	}
	if g.Type == "tcp" && g.Priority == "hi" {
		return g, o.errf("priority: tcp streams are background (elephant) flows; only echo/flood can be hi")
	}
	return g, nil
}

func decodeLink(root *obj) (*Link, error) {
	o, err := root.child("link")
	if err != nil || o == nil {
		return nil, err
	}
	l := &Link{}
	if l.WireLatency, err = o.duration("wire_latency", 0); err != nil {
		return nil, err
	}
	bw, err := o.float("bandwidth_bps", 0)
	if err != nil {
		return nil, err
	}
	if bw < 0 {
		return nil, o.errf("bandwidth_bps: must not be negative")
	}
	l.BandwidthBps = int64(bw)
	if err := o.finish(); err != nil {
		return nil, err
	}
	if l.WireLatency == 0 && l.BandwidthBps == 0 {
		return nil, o.errf("at least one of wire_latency / bandwidth_bps must be set")
	}
	return l, nil
}

var faultClassNames = map[string]fault.Class{
	"corrupt":  fault.ClassCorrupt,
	"ring":     fault.ClassRing,
	"link":     fault.ClassLink,
	"consumer": fault.ClassConsumer,
	"softirq":  fault.ClassSoftirq,
	"all":      fault.ClassAll,
	// Cluster-only classes (deliberately outside "all": they require the
	// recovery controller, and arming them must not perturb the RNG
	// draws of datapath-fault configurations).
	"host_crash": fault.ClassHostCrash,
	"tor_link":   fault.ClassTorLink,
}

func decodeClasses(o *obj, key string) (fault.Class, error) {
	names, err := o.strList(key)
	if err != nil {
		return 0, err
	}
	var c fault.Class
	for i, n := range names {
		cl, ok := faultClassNames[n]
		if !ok {
			valid := make([]string, 0, len(faultClassNames))
			for k := range faultClassNames {
				valid = append(valid, k)
			}
			sort.Strings(valid)
			return 0, fmt.Errorf("%s[%d]: unknown fault class %q (valid: %s)",
				o.fieldPath(key), i, n, strings.Join(valid, ", "))
		}
		c |= cl
	}
	return c, nil
}

func decodeFaults(root *obj) (*Faults, error) {
	o, err := root.child("faults")
	if err != nil || o == nil {
		return nil, err
	}
	f := &Faults{}
	if _, ok := o.m["seed"]; ok {
		f.seedSet = true
	}
	seed, err := o.integer("seed", 0)
	if err != nil {
		return nil, err
	}
	if seed < 0 {
		return nil, o.errf("seed: must not be negative")
	}
	f.Seed = uint64(seed)
	if f.Shed, err = o.boolean("shed", false); err != nil {
		return nil, err
	}
	if f.Rate, err = o.float("rate", 0); err != nil {
		return nil, err
	}
	if f.Rate < 0 || f.Rate > 1 {
		return nil, o.errf("rate: %v outside [0, 1]", f.Rate)
	}
	if f.Classes, err = decodeClasses(o, "classes"); err != nil {
		return nil, err
	}
	phases, err := o.children("phases")
	if err != nil {
		return nil, err
	}
	for _, po := range phases {
		var ph FaultPhase
		if ph.From, err = po.duration("from", 0); err != nil {
			return nil, err
		}
		if ph.Until, err = po.duration("until", 0); err != nil {
			return nil, err
		}
		if ph.Kind, err = po.enum("kind", "", "", "host_crash", "tor_link_down"); err != nil {
			return nil, err
		}
		host, err := po.integer("host", 0)
		if err != nil {
			return nil, err
		}
		ph.Host = int(host)
		tor, err := po.integer("tor", 0)
		if err != nil {
			return nil, err
		}
		ph.Tor = int(tor)
		if ph.Rate, err = po.float("rate", 0); err != nil {
			return nil, err
		}
		if ph.Classes, err = decodeClasses(po, "classes"); err != nil {
			return nil, err
		}
		if ph.Kind != "" {
			// A scripted failure event: the victim is the payload, rate
			// windows don't apply.
			if ph.Rate != 0 || ph.Classes != 0 {
				return nil, po.errf("kind: scripted %s entries carry host/tor, not rate/classes", ph.Kind)
			}
			if ph.From <= 0 {
				return nil, po.errf("from: a scripted %s needs a positive event time", ph.Kind)
			}
		} else {
			if ph.Rate <= 0 || ph.Rate > 1 {
				return nil, po.errf("rate: %v outside (0, 1]", ph.Rate)
			}
			if ph.Host != 0 || ph.Tor != 0 {
				return nil, po.errf("host/tor: only valid on scripted entries (set kind)")
			}
		}
		if ph.Until > 0 && ph.Until <= ph.From {
			return nil, po.errf("until: must be after from (or omitted for open-ended)")
		}
		if err = po.finish(); err != nil {
			return nil, err
		}
		f.Phases = append(f.Phases, ph)
	}
	if err := o.finish(); err != nil {
		return nil, err
	}
	if f.Rate == 0 && len(f.Phases) == 0 {
		return nil, o.errf("either rate or phases must be set")
	}
	rateWindows := 0
	for _, ph := range f.Phases {
		if ph.Kind == "" {
			rateWindows++
		}
	}
	if f.Rate > 0 && rateWindows > 0 {
		return nil, o.errf("rate and rate-window phases are mutually exclusive (phases carry their own rates)")
	}
	return f, nil
}

func decodeSLOs(root *obj) ([]SLO, error) {
	items, err := root.strList("slo")
	if err != nil || items == nil {
		return nil, err
	}
	slos := make([]SLO, len(items))
	for i, raw := range items {
		s, perr := parseSLO(fmt.Sprintf("scenario.slo[%d]", i), raw)
		if perr != nil {
			return nil, perr
		}
		slos[i] = s
	}
	return slos, nil
}

// validate enforces the cross-section rules a single section cannot see.
func validate(s *Scenario) error {
	switch {
	case s.Experiment != nil && s.Topology != nil:
		return fmt.Errorf("scenario: experiment and topology are mutually exclusive")
	case s.Experiment == nil && s.Topology == nil:
		return fmt.Errorf("scenario: exactly one of experiment / topology is required")
	}
	if s.Experiment != nil {
		if len(s.Workload) > 0 {
			return fmt.Errorf("scenario.workload: not valid with an experiment (the harness defines the workload)")
		}
		if s.Faults != nil && s.Experiment.Kind != "chaos" {
			return fmt.Errorf("scenario.faults: only the chaos experiment injects faults (use rates); declare a custom topology for fault timelines")
		}
		if s.Faults != nil {
			return fmt.Errorf("scenario.faults: the chaos experiment derives its planes from rates; faults is for custom topologies")
		}
		if s.Link != nil {
			return fmt.Errorf("scenario.link: link overrides need a custom topology (experiments pin the paper's cost model)")
		}
		if s.Conservation && s.Experiment.Kind != "chaos" && s.Experiment.Kind != "cluster" {
			return fmt.Errorf("scenario.conservation: only chaos, cluster and custom runs drain to the invariant check")
		}
		return nil
	}

	// Custom topology rules.
	t := s.Topology
	if len(s.Workload) == 0 {
		return fmt.Errorf("scenario.workload: a custom topology needs at least one traffic group")
	}
	for i, g := range s.Workload {
		path := fmt.Sprintf("scenario.workload[%d]", i)
		if t.Split == "cluster" {
			if g.Type == "tcp" {
				return fmt.Errorf("%s.type: tcp streams are not wired on cluster topologies", path)
			}
			if g.Senders > 1 {
				return fmt.Errorf("%s.senders: incast fan-in needs a single-host topology", path)
			}
			if g.Burst > 0 || g.poissonSet || g.jitterSet || g.PayloadLen > 0 || g.Port > 0 {
				return fmt.Errorf("%s: burst/poisson/jitter_frac/payload_len/port are not configurable on cluster topologies (the cluster wires generators itself)", path)
			}
			if len(g.Phases) > 0 || g.StopAt > 0 {
				return fmt.Errorf("%s: phases/stop_at are not supported on cluster topologies yet", path)
			}
			if g.Ingress >= t.Hosts {
				return fmt.Errorf("%s.ingress: host %d outside the %d-host cluster", path, g.Ingress, t.Hosts)
			}
		} else {
			if g.Count > 1 {
				return fmt.Errorf("%s.count: container replication needs split: cluster", path)
			}
			if g.Ingress >= 0 {
				return fmt.Errorf("%s.ingress: only valid with split: cluster", path)
			}
		}
		if g.StopAt > 0 && g.StopAt > s.Warmup+s.Duration {
			return fmt.Errorf("%s.stop_at: past the run horizon", path)
		}
		for j, ph := range g.Phases {
			if ph.At > s.Warmup+s.Duration {
				return fmt.Errorf("%s.phases[%d].at: past the run horizon", path, j)
			}
		}
	}
	if t.Split == "cluster" && t.Hosts < 1 {
		return fmt.Errorf("scenario.topology.hosts: a cluster needs at least 1 host")
	}
	if s.Faults != nil {
		horizon := s.Warmup + s.Duration
		clusterClasses := fault.ClassHostCrash | fault.ClassTorLink
		if t.Split != "cluster" && s.Faults.Classes&clusterClasses != 0 {
			return fmt.Errorf("scenario.faults.classes: host_crash / tor_link need split: cluster (they fail whole hosts and fabric uplinks)")
		}
		racks := t.Racks
		if racks <= 0 && t.Hosts > 0 {
			racks = (t.Hosts + 7) / 8 // the fabric's default rack shape
		}
		for i, ph := range s.Faults.Phases {
			if ph.From >= horizon {
				return fmt.Errorf("scenario.faults.phases[%d].from: past the run horizon", i)
			}
			if ph.Kind == "" {
				if t.Split != "cluster" && ph.Classes&clusterClasses != 0 {
					return fmt.Errorf("scenario.faults.phases[%d].classes: host_crash / tor_link need split: cluster", i)
				}
				continue
			}
			if t.Split != "cluster" {
				return fmt.Errorf("scenario.faults.phases[%d].kind: scripted %s needs split: cluster", i, ph.Kind)
			}
			switch ph.Kind {
			case "host_crash":
				if ph.Host < 0 || ph.Host >= t.Hosts {
					return fmt.Errorf("scenario.faults.phases[%d].host: host %d outside the %d-host cluster", i, ph.Host, t.Hosts)
				}
			case "tor_link_down":
				if racks < 2 {
					return fmt.Errorf("scenario.faults.phases[%d]: tor_link_down needs a multi-rack fabric (set topology.racks >= 2)", i)
				}
				if ph.Tor < 0 || ph.Tor >= racks {
					return fmt.Errorf("scenario.faults.phases[%d].tor: rack %d outside the %d-rack fabric", i, ph.Tor, racks)
				}
			}
		}
	}
	return nil
}
