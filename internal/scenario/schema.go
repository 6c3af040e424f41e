package scenario

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"

	"prism/internal/fault"
	"prism/internal/sim"
	"prism/internal/softirq"
	"prism/internal/testbed"
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
	Phases []testbed.RatePhase
	StopAt sim.Time
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

// Parse decodes a scenario document (YAML subset or JSON). The decoders
// below record the document's first failure in a shared cell and keep
// going with defaults, so Parse checks for it once, after the last field.
func Parse(data []byte) (*Scenario, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	dec := &decoder{}
	root := dec.obj("scenario", tree)
	if root == nil {
		return nil, dec.err
	}
	v, _ := root.get("scenario")
	switch version, _ := v.(string); version {
	case Version:
	case "":
		return nil, fmt.Errorf("scenario.scenario: schema version missing (`scenario: %s` must be the document's version field)", Version)
	default:
		return nil, fmt.Errorf("scenario.scenario: unsupported version %q (this build reads %s)", version, Version)
	}
	s := decodeScenario(root)
	if dec.err == nil {
		validate(dec, s)
	}
	if dec.err != nil {
		return nil, dec.err
	}
	return s, nil
}

func decodeScenario(root *obj) *Scenario {
	s := &Scenario{
		Name:        root.str("name", ""),
		Description: root.str("description", ""),
	}
	seed := root.integer("seed", 42)
	root.check(seed < 0, "seed: must not be negative")
	s.Seed = uint64(seed)
	s.Warmup = root.duration("warmup", 100*sim.Millisecond)
	s.Duration = root.duration("duration", sim.Second)
	root.check(s.Duration <= 0, "duration: must be positive")
	s.Workers = int(root.integer("workers", 1))
	root.check(s.Workers < 1, "workers: must be >= 1")
	s.Traffic = decodeTraffic(root)
	s.Experiment = decodeExperiment(root)
	s.Topology = decodeTopology(root)
	s.Workload = decodeWorkload(root)
	s.Link = decodeLink(root)
	s.Faults = decodeFaults(root)
	s.SLOs = decodeSLOs(root)
	s.Conservation = root.enum("conservation", "", "", "required") == "required"
	root.finish()
	return s
}

func decodeTraffic(root *obj) (t TrafficParams) {
	if o := root.child("traffic"); o != nil {
		t = TrafficParams{
			HighRate:   o.float("high_rate", 0),
			BGRate:     o.float("bg_rate", 0),
			LoadRate:   o.float("load_rate", 0),
			BGBurst:    int(o.integer("bg_burst", 0)),
			EchoCost:   o.duration("echo_cost", 0),
			SinkCost:   o.duration("sink_cost", 0),
			DriverPrio: o.boolean("driver_prio", false),
		}
		o.finish()
	}
	return t
}

func decodeExperiment(root *obj) *Experiment {
	o := root.child("experiment")
	if o == nil {
		return nil
	}
	e := &Experiment{
		Kind:       o.enum("kind", "", experimentKinds...),
		Loads:      o.floatList("loads"),
		Rates:      o.floatList("rates"),
		Policy:     o.str("policy", ""),
		Hosts:      int(o.integer("hosts", 0)),
		Containers: int(o.integer("containers", 0)),
		Placements: o.strList("placements"),
	}
	o.finish()
	const only = "%s: only valid for the %s experiment"
	o.dec.check(len(e.Loads) > 0 && e.Kind != "fig11", only, o.fieldPath("loads"), "fig11")
	o.dec.check(len(e.Rates) > 0 && e.Kind != "chaos", only, o.fieldPath("rates"), "chaos")
	o.dec.check(e.Policy != "" && e.Kind != "policies", only, o.fieldPath("policy"), "policies")
	o.dec.check((e.Hosts > 0 || e.Containers > 0 || len(e.Placements) > 0) && e.Kind != "cluster", only, o.fieldPath("hosts"), "cluster")
	o.dec.fail(knownPolicy(o.fieldPath("policy"), e.Policy))
	for i, r := range e.Rates {
		o.dec.check(r < 0 || r > 1, "%s[%d]: fault rate %v outside [0, 1]", o.fieldPath("rates"), i, r)
	}
	return e
}

func decodeTopology(root *obj) *Topology {
	o := root.child("topology")
	if o == nil {
		return nil
	}
	t := &Topology{
		Split:  o.enum("split", "monolithic", "monolithic", "cluster"),
		Mode:   o.enum("mode", "prism-sync", "vanilla", "prism-batch", "prism-sync"),
		Policy: o.str("policy", ""),
	}
	o.dec.fail(knownPolicy(o.fieldPath("policy"), t.Policy))
	t.RxQueues = int(o.integer("rx_queues", 0))
	t.BatchSize = int(o.integer("batch_size", 0))
	t.Shed = o.boolean("shed", false)
	t.Hosts = int(o.integer("hosts", 0))
	t.Racks = int(o.integer("racks", 0))
	t.HostCap = int(o.integer("host_cap", 0))
	t.Placement = o.enum("placement", "", "", "spread", "pack", "priority")
	if adm := o.child("admission"); adm != nil {
		t.Admission = &Admission{
			Rate:      adm.float("rate", 0),
			Burst:     int(adm.integer("burst", 0)),
			HiReserve: adm.float("hi_reserve", 0),
		}
		adm.finish()
	}
	o.finish()
	cluster := t.Split == "cluster"
	o.check(!cluster && (t.Hosts > 0 || t.Racks > 0 || t.HostCap > 0 || t.Placement != "" || t.Admission != nil),
		"hosts/racks/host_cap/placement/admission: only valid with split: cluster")
	o.check(cluster && (t.RxQueues > 0 || t.BatchSize > 0),
		"rx_queues/batch_size: not valid with split: cluster (set them on the host template via policy knobs)")
	return t
}

// knownPolicy rejects a poll-policy name the softirq registry lacks; ""
// (derive the policy from the mode) is always valid.
func knownPolicy(path, name string) error {
	known := softirq.Policies()
	if name == "" || slices.Contains(known, name) {
		return nil
	}
	sort.Strings(known)
	return fmt.Errorf("%s: unknown poll policy %q (valid: %s)", path, name, strings.Join(known, ", "))
}

func decodeWorkload(root *obj) []Group {
	items := root.children("workload")
	if items == nil {
		return nil
	}
	groups := make([]Group, len(items))
	names := map[string]bool{}
	for i, o := range items {
		g := decodeGroup(o)
		o.check(names[g.Name], "name: duplicate group name %q", g.Name)
		names[g.Name] = true
		groups[i] = g
	}
	return groups
}

func decodeGroup(o *obj) Group {
	g := Group{Name: o.strRequired("name")}
	o.check(!groupNameRe.MatchString(g.Name), "name: %q must match %s (it names the group's metrics)", g.Name, groupNameRe)
	g.Type = o.enum("type", "", "echo", "flood", "tcp")
	g.Priority = o.enum("priority", "lo", "hi", "lo")
	g.Rate = o.float("rate", 0)
	o.check(g.Rate <= 0, "rate: must be positive")
	port := o.integer("port", 0)
	o.check(port < 0 || port > 65535, "port: %d outside [0, 65535]", port)
	g.Port = int(port)
	g.Senders = int(o.integer("senders", 1))
	o.check(g.Senders < 1, "senders: must be >= 1")
	g.Count = int(o.integer("count", 1))
	o.check(g.Count < 1, "count: must be >= 1")
	g.Burst = int(o.integer("burst", 0))
	g.poissonSet = o.has("poisson")
	g.Poisson = o.boolean("poisson", false)
	g.jitterSet = o.has("jitter_frac")
	g.JitterFrac = o.float("jitter_frac", 0)
	g.PayloadLen = int(o.integer("payload_len", 0))
	g.MsgSize = int(o.integer("msg_size", 0))
	g.Ingress = int(o.integer("ingress", -1))
	g.StopAt = o.duration("stop_at", 0)
	for _, po := range o.children("phases") {
		ph := testbed.RatePhase{At: po.duration("at", 0), RateX: po.float("rate_x", 0)}
		po.check(ph.RateX <= 0, "rate_x: must be positive (use stop_at to end a flow)")
		po.finish()
		n := len(g.Phases)
		po.check(n > 0 && ph.At <= g.Phases[n-1].At, "at: phases must be in strictly increasing time order")
		g.Phases = append(g.Phases, ph)
	}
	o.finish()
	o.check(g.Type != "flood" && (g.Burst > 0 || g.Senders > 1 || g.poissonSet || g.jitterSet),
		"burst/senders/poisson/jitter_frac: only valid for type: flood")
	o.check(g.Type != "tcp" && g.MsgSize > 0, "msg_size: only valid for type: tcp")
	o.check(g.Type == "tcp" && g.Priority == "hi",
		"priority: tcp streams are background (elephant) flows; only echo/flood can be hi")
	return g
}

func decodeLink(root *obj) *Link {
	o := root.child("link")
	if o == nil {
		return nil
	}
	l := &Link{WireLatency: o.duration("wire_latency", 0)}
	bw := o.float("bandwidth_bps", 0)
	o.check(bw < 0, "bandwidth_bps: must not be negative")
	l.BandwidthBps = int64(bw)
	o.finish()
	o.check(l.WireLatency == 0 && l.BandwidthBps == 0, "at least one of wire_latency / bandwidth_bps must be set")
	return l
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

func decodeClasses(o *obj, key string) fault.Class {
	var c fault.Class
	for i, n := range o.strList(key) {
		cl, ok := faultClassNames[n]
		if !ok {
			valid := make([]string, 0, len(faultClassNames))
			for k := range faultClassNames {
				valid = append(valid, k)
			}
			sort.Strings(valid)
			o.dec.fail(fmt.Errorf("%s[%d]: unknown fault class %q (valid: %s)",
				o.fieldPath(key), i, n, strings.Join(valid, ", ")))
			return 0
		}
		c |= cl
	}
	return c
}

func decodeFaults(root *obj) *Faults {
	o := root.child("faults")
	if o == nil {
		return nil
	}
	f := &Faults{seedSet: o.has("seed")}
	seed := o.integer("seed", 0)
	o.check(seed < 0, "seed: must not be negative")
	f.Seed = uint64(seed)
	f.Shed = o.boolean("shed", false)
	f.Rate = o.float("rate", 0)
	o.check(f.Rate < 0 || f.Rate > 1, "rate: %v outside [0, 1]", f.Rate)
	f.Classes = decodeClasses(o, "classes")
	rateWindows := 0
	for _, po := range o.children("phases") {
		ph := FaultPhase{
			From:    po.duration("from", 0),
			Until:   po.duration("until", 0),
			Kind:    po.enum("kind", "", "", "host_crash", "tor_link_down"),
			Host:    int(po.integer("host", 0)),
			Tor:     int(po.integer("tor", 0)),
			Rate:    po.float("rate", 0),
			Classes: decodeClasses(po, "classes"),
		}
		if ph.Kind != "" {
			// A scripted failure event: the victim is the payload, rate
			// windows don't apply.
			po.check(ph.Rate != 0 || ph.Classes != 0, "kind: scripted %s entries carry host/tor, not rate/classes", ph.Kind)
			po.check(ph.From <= 0, "from: a scripted %s needs a positive event time", ph.Kind)
		} else {
			rateWindows++
			po.check(ph.Rate <= 0 || ph.Rate > 1, "rate: %v outside (0, 1]", ph.Rate)
			po.check(ph.Host != 0 || ph.Tor != 0, "host/tor: only valid on scripted entries (set kind)")
		}
		po.check(ph.Until > 0 && ph.Until <= ph.From, "until: must be after from (or omitted for open-ended)")
		po.finish()
		f.Phases = append(f.Phases, ph)
	}
	o.finish()
	o.check(f.Rate == 0 && len(f.Phases) == 0, "either rate or phases must be set")
	o.check(f.Rate > 0 && rateWindows > 0, "rate and rate-window phases are mutually exclusive (phases carry their own rates)")
	return f
}

func decodeSLOs(root *obj) []SLO {
	items := root.strList("slo")
	if items == nil {
		return nil
	}
	slos := make([]SLO, len(items))
	for i, raw := range items {
		s, err := parseSLO(fmt.Sprintf("scenario.slo[%d]", i), raw)
		root.dec.fail(err)
		slos[i] = s
	}
	return slos
}

// validate enforces the cross-section rules a single section cannot see.
func validate(d *decoder, s *Scenario) {
	if e := s.Experiment; e != nil {
		d.check(s.Topology != nil, "scenario: experiment and topology are mutually exclusive")
		d.check(len(s.Workload) > 0, "scenario.workload: not valid with an experiment (the harness defines the workload)")
		d.check(s.Faults != nil && e.Kind != "chaos", "scenario.faults: only the chaos experiment injects faults (use rates); declare a custom topology for fault timelines")
		d.check(s.Faults != nil, "scenario.faults: the chaos experiment derives its planes from rates; faults is for custom topologies")
		d.check(s.Link != nil, "scenario.link: link overrides need a custom topology (experiments pin the paper's cost model)")
		d.check(s.Conservation && e.Kind != "chaos" && e.Kind != "cluster", "scenario.conservation: only chaos, cluster and custom runs drain to the invariant check")
		return
	}
	t := s.Topology
	if t == nil {
		d.fail(fmt.Errorf("scenario: exactly one of experiment / topology is required"))
		return
	}

	// Custom topology rules.
	cluster := t.Split == "cluster"
	horizon := s.Warmup + s.Duration
	d.check(len(s.Workload) == 0, "scenario.workload: a custom topology needs at least one traffic group")
	for i, g := range s.Workload {
		path := fmt.Sprintf("scenario.workload[%d]", i)
		if cluster {
			d.check(g.Type == "tcp", "%s.type: tcp streams are not wired on cluster topologies", path)
			d.check(g.Senders > 1, "%s.senders: incast fan-in needs a single-host topology", path)
			d.check(g.Burst > 0 || g.poissonSet || g.jitterSet || g.PayloadLen > 0 || g.Port > 0,
				"%s: burst/poisson/jitter_frac/payload_len/port are not configurable on cluster topologies (the cluster wires generators itself)", path)
			d.check(len(g.Phases) > 0 || g.StopAt > 0, "%s: phases/stop_at are not supported on cluster topologies yet", path)
			d.check(g.Ingress >= t.Hosts, "%s.ingress: host %d outside the %d-host cluster", path, g.Ingress, t.Hosts)
		} else {
			d.check(g.Count > 1, "%s.count: container replication needs split: cluster", path)
			d.check(g.Ingress >= 0, "%s.ingress: only valid with split: cluster", path)
		}
		d.check(g.StopAt > 0 && g.StopAt > horizon, "%s.stop_at: past the run horizon", path)
		for j, ph := range g.Phases {
			d.check(ph.At > horizon, "%s.phases[%d].at: past the run horizon", path, j)
		}
	}
	d.check(cluster && t.Hosts < 1, "scenario.topology.hosts: a cluster needs at least 1 host")
	f := s.Faults
	if f == nil {
		return
	}
	clusterClasses := fault.ClassHostCrash | fault.ClassTorLink
	d.check(!cluster && f.Classes&clusterClasses != 0, "scenario.faults.classes: host_crash / tor_link need split: cluster (they fail whole hosts and fabric uplinks)")
	racks := t.Racks
	if racks <= 0 && t.Hosts > 0 {
		racks = (t.Hosts + 7) / 8 // the fabric's default rack shape
	}
	for i, ph := range f.Phases {
		d.check(ph.From >= horizon, "scenario.faults.phases[%d].from: past the run horizon", i)
		if ph.Kind == "" {
			d.check(!cluster && ph.Classes&clusterClasses != 0, "scenario.faults.phases[%d].classes: host_crash / tor_link need split: cluster", i)
			continue
		}
		d.check(!cluster, "scenario.faults.phases[%d].kind: scripted %s needs split: cluster", i, ph.Kind)
		switch ph.Kind {
		case "host_crash":
			d.check(ph.Host < 0 || ph.Host >= t.Hosts, "scenario.faults.phases[%d].host: host %d outside the %d-host cluster", i, ph.Host, t.Hosts)
		case "tor_link_down":
			d.check(racks < 2, "scenario.faults.phases[%d]: tor_link_down needs a multi-rack fabric (set topology.racks >= 2)", i)
			d.check(ph.Tor < 0 || ph.Tor >= racks, "scenario.faults.phases[%d].tor: rack %d outside the %d-rack fabric", i, ph.Tor, racks)
		}
	}
}
