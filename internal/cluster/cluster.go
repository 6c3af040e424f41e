// Package cluster scales the paper's single-host model out to a simulated
// datacenter: N hosts — each the full NIC→softirq→overlay→socket pipeline
// built from a testbed.Spec — connected by a two-tier ToR/spine fabric,
// with a deterministic control plane (container placement, per-host
// admission, snapshot-based flow routing) on top.
//
// Every host and every switch is one internal/par shard; all inter-shard
// traffic rides cross-shard links whose lookahead is the cable
// propagation delay, so a cluster run is bit-identical at any worker
// count — the same contract the single-host splits already honor.
//
// A flow's life: the ingress host's client machine emits a request frame;
// the ingress token bucket admits or refuses it; admitted frames ride the
// host→ToR uplink, are classified by the ToR against the control-plane
// snapshot (inner destination port → host), hop via the spine when the
// destination is in another rack, and enter the destination host's NIC
// like any wire arrival. The reply leaves over the host's WireTx, is
// routed back to the ingress host by the client-port route, and lands in
// that host's client demux, closing the latency sample.
package cluster

import (
	"fmt"
	"sync/atomic"

	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/par"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/stats"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// Port bases: service ports identify destination containers, client ports
// identify flows (reply routing). Container IPs repeat across hosts —
// every host derives them from its local container index — so ports are
// the only globally unique flow identity and all fabric routing keys on
// them.
const (
	SvcPortBase = 20000
	CliPortBase = 40000
)

// SvcPort is container i's service port; CliPort its flow's client-side
// source port.
func SvcPort(i int) uint16 { return uint16(SvcPortBase + i) }

// CliPort is flow i's client-side source port (the reply destination).
func CliPort(i int) uint16 { return uint16(CliPortBase + i) }

// Config declares a whole cluster as data.
type Config struct {
	// Hosts is the number of simulated server hosts.
	Hosts int
	// HostCap bounds containers per host for the placer (default 200;
	// the overlay's address space caps it at 248).
	HostCap int
	// Placement is the container scheduling policy.
	Placement Placement
	// Seed drives every random stream; per-host engine and fault seeds
	// are derived from it.
	Seed uint64
	// Host is the per-host template: NIC config, cost model, mode,
	// policy, shed, fault plane. Split and Pipe are ignored (every host
	// is built standalone with its own pipeline); Seed and the fault
	// seed are re-derived per host.
	Host testbed.Spec
	// Specs declares the container workload; index order is part of the
	// deterministic contract (ports and placement derive from it).
	Specs []ContainerSpec
	// Admission configures the per-host ingress token bucket; nil
	// disables admission control.
	Admission *Admission
	// Fabric sizes the switching fabric.
	Fabric FabricConfig
	// Recovery arms the failure detector and recovery controller; nil
	// (the default) disables the whole subsystem — no heartbeats, no
	// controller ticks, no extra events — so pre-existing configurations
	// run bit-identically.
	Recovery *RecoveryConfig
	// Warmup is discarded from latency/utilization accounting.
	Warmup sim.Time
	// EchoCost / SinkCost are the per-request application CPU costs.
	EchoCost sim.Time
	SinkCost sim.Time
	// ObsSampling keeps one traced packet in N per pipeline (metrics are
	// never sampled); 0 defaults to 16 — a 1000-container cluster's full
	// span stream would otherwise dominate digest time. 1 disables
	// sampling.
	ObsSampling int
}

func (c Config) withDefaults() Config {
	if c.Hosts < 1 {
		c.Hosts = 1
	}
	if c.HostCap <= 0 {
		c.HostCap = 200
	}
	if c.HostCap > 248 {
		c.HostCap = 248
	}
	if c.EchoCost <= 0 {
		c.EchoCost = 500 * sim.Nanosecond
	}
	if c.SinkCost <= 0 {
		c.SinkCost = 600 * sim.Nanosecond
	}
	if c.ObsSampling <= 0 {
		c.ObsSampling = 16
	}
	return c
}

// hostSeed derives host i's engine RNG stream.
func hostSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e3779b97f4a7c15 }

// switchSeed derives a switch's engine RNG stream (unused by the model,
// but every engine needs one).
func switchSeed(seed uint64, i int) uint64 { return seed ^ 0x70c0ffee ^ uint64(i)*0x517cc1b727220a95 }

// Node is one host plus its cluster-side plumbing.
type Node struct {
	ID    int
	Name  string
	Shard *par.Shard
	Host  *overlay.Host
	Pipe  *obs.Pipeline
	Plane *fault.Plane
	// Client demuxes reply frames for flows whose ingress is this host.
	Client *traffic.Client
	// Bucket is the ingress admission bucket (nil = admit all).
	Bucket *TokenBucket
	// Up is the host→ToR uplink.
	Up *par.Link

	// Injected counts frames this node pushed into the fabric (admitted
	// requests + server replies); FromFabric counts fabric frames
	// delivered into the host's NIC path; ToClients counts reply frames
	// delivered to the client demux; Misrouted counts frames the fabric
	// delivered here by mistake (always zero unless the fabric is
	// broken).
	Injected   uint64
	FromFabric uint64
	ToClients  uint64
	Misrouted  uint64

	// down marks the host fail-stopped at the wire: internally its engine
	// keeps running (so the per-host ledgers stay closed), but nothing
	// enters or leaves. Written only from the host's own shard at exact
	// event times; read by the barrier controller.
	down   bool
	downAt sim.Time
	// lastBeat is the host's most recent heartbeat on the out-of-band
	// control network (written on the host shard, read at barriers).
	lastBeat sim.Time

	// CrashRx counts fabric frames that arrived while the host was down;
	// CrashTx frames the host tried to emit while down (neither enters
	// the fabric ledger — CrashTx frames were never Injected, CrashRx
	// frames are accounted as fabric drops). EpochDrops counts frames
	// that arrived here under a routing epoch that no longer maps them to
	// this host — in-flight during a snapshot swap, delivered nowhere,
	// but counted, never silently lost. Retries counts admission-refusal
	// retries scheduled while the cluster was degraded.
	CrashRx    uint64
	CrashTx    uint64
	EpochDrops uint64
	Retries    uint64
}

// Flow is one placed container workload and its generator.
type Flow struct {
	Index   int
	Spec    ContainerSpec
	HostID  int
	Ingress int
	// PP is the latency flow (nil for floods); Flood the open-loop
	// background (nil for echoes).
	PP    *traffic.PingPong
	Flood *traffic.UDPFlood
}

// Cluster is one fully wired instance of a Config.
type Cluster struct {
	Cfg   Config
	Group *par.Group
	Nodes []*Node
	Tors  []*Switch
	Spine *Switch // nil when the fabric has a single rack
	// Assignment maps flow index → host ID. It starts as the placer's
	// output and is updated by recovery migrations.
	Assignment []int
	Flows      []*Flow

	// snap is the shared routing snapshot every switch and downlink
	// classifier reads; recovery swaps it atomically at barrier epochs.
	snap atomic.Pointer[Snapshot]

	// torUp[r] is rack r's ToR→spine uplink port; spineDown[r] the
	// spine's matching downlink (both nil-length with a single rack).
	torUp     []*Port
	spineDown []*Port

	links   []*par.Link
	perRack int
	horizon sim.Time
	ckpt    *par.Ticker
	// ctrl drives the recovery controller at barrier boundaries.
	ctrl *par.Ticker
	rec  *recoveryState
}

// Snapshot returns the live routing snapshot (safe from any goroutine).
func (c *Cluster) Snapshot() *Snapshot { return c.snap.Load() }

// SwapSnapshot atomically publishes a new routing snapshot. Versions must
// be strictly increasing — the monotonicity every switch relies on to
// tell a stale epoch from the live one. Call only while the shards are
// quiescent (at a barrier, or before Run).
func (c *Cluster) SwapSnapshot(next *Snapshot) error {
	cur := c.snap.Load()
	if next == nil {
		return fmt.Errorf("cluster: nil snapshot")
	}
	if next.Version <= cur.Version {
		return fmt.Errorf("cluster: snapshot version must increase: %d -> %d", cur.Version, next.Version)
	}
	c.snap.Store(next)
	return nil
}

// New wires the cluster a Config describes: place containers, build the
// routing snapshot, instantiate hosts and switches on their shards, and
// attach every flow. The returned cluster is ready to Run.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("cluster: no container specs")
	}
	if len(cfg.Specs) > CliPortBase-SvcPortBase || CliPortBase+len(cfg.Specs) > 65535 {
		return nil, fmt.Errorf("cluster: %d containers exceed the port space", len(cfg.Specs))
	}
	costs := cfg.Host.Costs
	if costs == nil {
		costs = netdev.DefaultCosts()
	}
	fc := cfg.Fabric.withDefaults(cfg.Hosts, costs.WireLatency)
	cfg.Fabric = fc

	assign, err := Place(cfg.Placement, cfg.Specs, cfg.Hosts, cfg.HostCap)
	if err != nil {
		return nil, err
	}

	// Control-plane snapshot: service ports route to the placed host,
	// client ports route replies back to the flow's ingress host.
	routes := make(map[uint16]Route, 2*len(cfg.Specs))
	ingressOf := func(i int) int {
		in := cfg.Specs[i].Ingress
		if in < 0 || in >= cfg.Hosts {
			in = (i*13 + 7) % cfg.Hosts
		}
		return in
	}
	for i, sp := range cfg.Specs {
		routes[SvcPort(i)] = Route{Host: assign[i], Hi: sp.Hi}
		routes[CliPort(i)] = Route{Host: ingressOf(i), Hi: sp.Hi, ToClient: true}
	}
	c := &Cluster{Cfg: cfg, Group: par.NewGroup(), Assignment: assign}
	c.snap.Store(NewSnapshot(1, routes))
	c.perRack = (cfg.Hosts + fc.Racks - 1) / fc.Racks

	// Hosts, one shard each, with derived seeds and fault streams.
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host%02d", i)
		hspec := cfg.Host
		hspec.Split = testbed.Monolithic
		hspec.Seed = hostSeed(cfg.Seed, i)
		hspec.Pipe = nil
		if hspec.Fault != nil {
			f := *hspec.Fault
			f.Seed = hspec.Seed ^ faultSalt
			hspec.Fault = &f
		}
		eng := sim.NewEngine(hspec.Seed)
		shard := c.Group.Add(name, eng)
		host, pipe, plane := hspec.BuildHost(eng, name)
		pipe.T.SetSampling(cfg.ObsSampling)
		n := &Node{
			ID: i, Name: name, Shard: shard, Host: host, Pipe: pipe, Plane: plane,
			Client: traffic.NewClient(host),
			Bucket: NewTokenBucket(admissionOrZero(cfg.Admission)),
		}
		c.Nodes = append(c.Nodes, n)
	}

	// Switches: one ToR per rack, plus a spine when there is more than
	// one rack.
	for r := 0; r < fc.Racks; r++ {
		tor := newSwitch(c.Group, fmt.Sprintf("tor%02d", r), switchSeed(cfg.Seed, r), fc.TorLatency, fc, &c.snap)
		tor.Pipe.T.SetSampling(cfg.ObsSampling)
		c.Tors = append(c.Tors, tor)
	}
	if fc.Racks > 1 {
		c.Spine = newSwitch(c.Group, "spine", switchSeed(cfg.Seed, fc.Racks), fc.SpineLatency, fc, &c.snap)
		c.Spine.Pipe.T.SetSampling(cfg.ObsSampling)
	}

	// Host↔ToR links and the ToRs' downlink port maps.
	torDown := make([]map[int]*Port, fc.Racks)
	for r := range torDown {
		torDown[r] = make(map[int]*Port)
	}
	for _, n := range c.Nodes {
		n := n
		r := c.rackOf(n.ID)
		tor := c.Tors[r]
		n.Up = c.connect(n.Shard, tor.Shard, fc.HostLink, tor.Receive)
		down := c.connect(tor.Shard, n.Shard, fc.HostLink, func(at sim.Time, frame []byte) {
			c.deliverToNode(n, at, frame)
		})
		torDown[r][n.ID] = tor.addPort(fmt.Sprintf("%s->%s", tor.Name, n.Name), down, fc.HostLink)

		host := n.Host
		host.WireTx = func(now, arrive sim.Time, frame []byte) {
			if n.down {
				n.CrashTx++
				return
			}
			n.Injected++
			n.Up.Send(now, arrive-now, frame)
		}
	}

	// ToR↔spine links and the routing closures.
	if c.Spine != nil {
		spineDown := make([]*Port, fc.Racks)
		c.torUp = make([]*Port, fc.Racks)
		for r, tor := range c.Tors {
			r, tor := r, tor
			upLink := c.connect(tor.Shard, c.Spine.Shard, fc.SpineLink, c.Spine.Receive)
			torUp := tor.addPort(fmt.Sprintf("%s->spine", tor.Name), upLink, fc.SpineLink)
			c.torUp[r] = torUp
			downLink := c.connect(c.Spine.Shard, tor.Shard, fc.SpineLink, tor.Receive)
			spineDown[r] = c.Spine.addPort(fmt.Sprintf("spine->%s", tor.Name), downLink, fc.SpineLink)

			down := torDown[r]
			tor.portFor = func(rt Route) *Port {
				if p, ok := down[rt.Host]; ok {
					return p
				}
				return torUp
			}
		}
		c.spineDown = spineDown
		c.Spine.portFor = func(rt Route) *Port { return spineDown[c.rackOf(rt.Host)] }
	} else {
		down := torDown[0]
		c.Tors[0].portFor = func(rt Route) *Port { return down[rt.Host] }
	}

	// Containers and their flows.
	for i, sp := range cfg.Specs {
		sp := sp
		if sp.Name == "" {
			sp.Name = fmt.Sprintf("c%04d", i)
		}
		dst := c.Nodes[assign[i]]
		ctr := dst.Host.AddContainer(sp.Name)
		if sp.Hi {
			dst.Host.DB.Add(prio.Rule{IP: ctr.IP, Port: SvcPort(i)})
		}
		in := c.Nodes[ingressOf(i)]
		src := overlay.ClientContainer(i, CliPort(i))
		inject := c.injectVia(in, sp.Hi)
		// Desynchronized deterministic start phases keep the cluster's
		// generators from emitting in lockstep.
		startAt := sim.Time(i%97) * 53 * sim.Microsecond
		fl := &Flow{Index: i, Spec: sp, HostID: assign[i], Ingress: in.ID}
		if sp.Flood {
			f := traffic.NewUDPFlood(in.Shard.Eng, dst.Host, ctr, src, SvcPort(i), sp.Rate)
			f.Burst = 32
			f.Poisson = false
			f.JitterFrac = 0.2
			if err := f.InstallSink(cfg.SinkCost); err != nil {
				return nil, fmt.Errorf("cluster: %s: %w", sp.Name, err)
			}
			f.Inject = inject
			f.Start(startAt)
			fl.Flood = f
		} else {
			pp := traffic.NewPingPong(in.Shard.Eng, dst.Host, ctr, src, SvcPort(i), sp.Rate)
			pp.Warmup = cfg.Warmup
			if err := pp.InstallEcho(cfg.EchoCost); err != nil {
				return nil, fmt.Errorf("cluster: %s: %w", sp.Name, err)
			}
			pp.Inject = inject
			pp.Start(in.Client, startAt)
			fl.PP = pp
		}
		c.Flows = append(c.Flows, fl)
	}
	if err := c.initRecovery(); err != nil {
		return nil, err
	}
	return c, nil
}

// faultSalt perturbs each host's fault-plane RNG stream away from its
// engine stream.
const faultSalt uint64 = 0x5eedfa017

func admissionOrZero(a *Admission) Admission {
	if a == nil {
		return Admission{}
	}
	return *a
}

// connect wraps Group.Connect, remembering the link for in-flight
// accounting.
func (c *Cluster) connect(src, dst *par.Shard, lookahead sim.Time, deliver func(at sim.Time, frame []byte)) *par.Link {
	l := c.Group.Connect(src, dst, lookahead, deliver)
	c.links = append(c.links, l)
	return l
}

// rackOf maps a host ID to its rack (ID-block assignment).
func (c *Cluster) rackOf(host int) int { return host / c.perRack }

// injectVia builds the generator hook for a flow entering at node in: the
// admission decision, then the uplink. Runs in event context on the
// ingress shard.
func (c *Cluster) injectVia(in *Node, hi bool) func(now, arrive sim.Time, frame []byte) {
	return func(now, arrive sim.Time, frame []byte) {
		c.inject(in, hi, now, arrive, frame, 0)
	}
}

// inject admits one generator frame into the fabric at node in, retrying
// refused admissions with exponential backoff while the cluster is
// degraded (recovery armed, a host down): the retry models clients
// backing off into the capacity-scaled bucket instead of silently losing
// offered load during failover. The retry preserves the frame's
// departure→arrival delta, so the re-sent frame still satisfies the
// uplink's lookahead contract. Runs in event context on the ingress
// shard.
func (c *Cluster) inject(in *Node, hi bool, now, arrive sim.Time, frame []byte, attempt int) {
	if in.down {
		in.CrashTx++
		return
	}
	if !in.Bucket.Admit(now, hi) {
		r := c.rec
		if r == nil || r.cfg.RetryMax <= 0 || !r.degraded || attempt >= r.cfg.RetryMax {
			return
		}
		wait := arrive - now
		delay := r.cfg.RetryBackoff.Delay(attempt + 1)
		in.Retries++
		in.Shard.Eng.At(now+delay, func() {
			nn := in.Shard.Eng.Now()
			c.inject(in, hi, nn, nn+wait, frame, attempt+1)
		})
		return
	}
	in.Injected++
	in.Up.Send(now, arrive-now, frame)
}

// deliverToNode terminates a fabric downlink: requests enter the host's
// NIC path, replies the client demux. Runs in event context on the node's
// shard. A down host absorbs the frame (CrashRx — the fail-stop wire). A
// frame whose route no longer points here was in flight across a
// snapshot swap: with recovery armed it is an epoch drop (counted, never
// silent); otherwise the fabric genuinely misrouted it.
func (c *Cluster) deliverToNode(n *Node, at sim.Time, frame []byte) {
	if n.down {
		n.CrashRx++
		return
	}
	rt, ok := classify(c.snap.Load(), frame)
	if !ok || rt.Host != n.ID {
		if ok && c.rec != nil {
			n.EpochDrops++
			return
		}
		n.Misrouted++
		return
	}
	if rt.ToClient {
		n.ToClients++
		n.Client.Deliver(at, frame)
		return
	}
	n.FromFabric++
	n.Host.InjectFromWire(at, frame)
}

// switches returns every switch in shard order.
func (c *Cluster) switches() []*Switch {
	sw := make([]*Switch, 0, len(c.Tors)+1)
	sw = append(sw, c.Tors...)
	if c.Spine != nil {
		sw = append(sw, c.Spine)
	}
	return sw
}

// SetCheckpoint arms a virtual-time checkpoint callback: fn observes the
// cluster every interval of virtual time, from the par coordinator
// goroutine at barrier boundaries where every shard is parked, so it may
// read pipelines, switch ports and node counters race-free. It must not
// mutate simulation state. The hook never perturbs the window schedule
// (the Windows counter in the committed golden fixtures is computed
// identically either way). Call before Run.
func (c *Cluster) SetCheckpoint(interval sim.Time, fn func(at sim.Time)) {
	if interval <= 0 || fn == nil {
		c.ckpt = nil
	} else {
		c.ckpt = par.NewTicker(interval, fn)
	}
	c.armBarrier()
}

// armBarrier installs the single OnBarrier hook multiplexing the
// recovery controller and the checkpoint ticker. The controller runs
// first, so checkpoints observe post-recovery state at the same epoch.
// windowEnd is exclusive, so the tickers advance to windowEnd-1 — the
// last instant whose events have all executed.
func (c *Cluster) armBarrier() {
	if c.ctrl == nil && c.ckpt == nil {
		c.Group.OnBarrier = nil
		return
	}
	c.Group.OnBarrier = func(windowEnd sim.Time) {
		c.ctrl.Advance(windowEnd - 1)
		c.ckpt.Advance(windowEnd - 1)
	}
}

// SetTap installs fn as every host's frame tap (nil uninstalls). The tap
// observes each wire frame entering (tx=false) or leaving (tx=true) a
// host, labeled with the host name. It runs in event context on that
// host's shard goroutine — possibly concurrently across hosts — so fn
// must be thread-safe, must not block, and must copy the frame if it
// retains it. Taps are read-only observation: installing one leaves the
// simulation schedule untouched.
func (c *Cluster) SetTap(fn func(host string, now sim.Time, frame []byte, tx bool)) {
	for _, n := range c.Nodes {
		if fn == nil {
			n.Host.Tap = nil
			continue
		}
		name := n.Name
		n.Host.Tap = func(now sim.Time, frame []byte, tx bool) { fn(name, now, frame, tx) }
	}
}

// ClassifyFrame resolves a wire frame to the container workload it
// belongs to. Ports are the only globally unique flow identity (container
// IPs repeat across hosts), so the inner flow's destination port — or, for
// reply frames, its source port — indexes the container spec. Safe to call
// concurrently; the flow table is immutable after New.
func (c *Cluster) ClassifyFrame(frame []byte) (container string, hi bool, ok bool) {
	inner := frame
	if pkt.IsVXLAN(frame) {
		_, in, err := pkt.Decapsulate(frame)
		if err != nil {
			return "", false, false
		}
		inner = in
	}
	fl, err := pkt.ParseFlow(inner)
	if err != nil {
		return "", false, false
	}
	if i, found := c.flowIndexForPort(fl.DstPort); found {
		return c.Flows[i].Spec.Name, c.Flows[i].Spec.Hi, true
	}
	if i, found := c.flowIndexForPort(fl.SrcPort); found {
		return c.Flows[i].Spec.Name, c.Flows[i].Spec.Hi, true
	}
	return "", false, false
}

func (c *Cluster) flowIndexForPort(port uint16) (int, bool) {
	p := int(port)
	switch {
	case p >= SvcPortBase && p < SvcPortBase+len(c.Flows):
		return p - SvcPortBase, true
	case p >= CliPortBase && p < CliPortBase+len(c.Flows):
		return p - CliPortBase, true
	}
	return 0, false
}

// Run executes warmup + duration with the given worker count, resetting
// every host core's and fabric port's utilization window at the end of
// warmup, and arming the hosts' fault timelines plus (when configured)
// the recovery subsystem: scripted failure events, heartbeats, per-ToR
// fault planes, and the barrier-quantized controller tick.
func (c *Cluster) Run(duration sim.Time, workers int) error {
	c.horizon = c.Cfg.Warmup + duration
	warmup := c.Cfg.Warmup
	c.armRecovery()
	for _, n := range c.Nodes {
		n := n
		n.Host.Eng.At(warmup, func() { n.Host.ProcCore.ResetWindow(warmup) })
		if n.Plane != nil {
			n.Plane.Start(c.horizon)
		}
	}
	for _, sw := range c.switches() {
		sw := sw
		sw.Shard.Eng.At(warmup, func() { sw.resetWindow(warmup) })
	}
	if err := c.Group.Run(c.horizon, workers); err != nil {
		return err
	}
	c.ctrl.Flush(c.horizon)
	c.ckpt.Flush(c.horizon)
	if c.rec != nil && c.rec.err != nil {
		return c.rec.err
	}
	return nil
}

// Stop ceases every generator after its current emission.
func (c *Cluster) Stop() {
	for _, f := range c.Flows {
		if f.PP != nil {
			f.PP.Stop()
		}
		if f.Flood != nil {
			f.Flood.Stop()
		}
	}
}

// Settle stops the generators and runs the cluster in grace-sized rounds
// until the fabric is empty and the fault watchdogs have nothing left to
// rescue — the precondition for strict (zero-leak) invariant checks.
func (c *Cluster) Settle(grace sim.Time, workers int) error {
	if grace <= 0 {
		grace = 50 * sim.Millisecond
	}
	c.Stop()
	end := c.horizon
	for round := 0; ; round++ {
		end += grace
		if err := c.Group.Run(end, workers); err != nil {
			return err
		}
		rescued := 0
		for _, n := range c.Nodes {
			if n.Plane != nil {
				rescued += n.Plane.RescueStuck(n.Host.Eng.Now())
			}
		}
		if rescued == 0 && c.fabricInFlight() == 0 {
			return nil
		}
		if round >= 16 {
			return fmt.Errorf("cluster: settle did not converge after %d rounds (%d in fabric, %d rescued)",
				round, c.fabricInFlight(), rescued)
		}
	}
}

// fabricInFlight counts frames inside the fabric: switch queues and
// in-serialization frames, link window buffers, and shard inboxes holding
// deliveries beyond the last horizon.
func (c *Cluster) fabricInFlight() int {
	n := 0
	for _, sw := range c.switches() {
		n += sw.inFlight()
	}
	for _, l := range c.links {
		n += l.Buffered()
	}
	for _, s := range c.Group.Shards() {
		n += s.InboxLen()
	}
	return n
}

// Terms aggregates the cluster-wide conservation terms, with per-host and
// per-switch breakdowns (so a broken equation names its residual) and one
// reconciliation record per recovery migration.
func (c *Cluster) Terms() testbed.ClusterTerms {
	var t testbed.ClusterTerms
	for _, n := range c.Nodes {
		t.Injected += n.Injected
		t.ToHosts += n.FromFabric
		t.ToClients += n.ToClients
		t.Dropped += n.Misrouted + n.CrashRx + n.EpochDrops
		t.CrashDropped += n.CrashRx
		t.EpochDropped += n.EpochDrops
		t.PerHost = append(t.PerHost, testbed.HostTerms{
			Name: n.Name, Injected: n.Injected, FromFabric: n.FromFabric,
			ToClients: n.ToClients, Misrouted: n.Misrouted,
			CrashRx: n.CrashRx, CrashTx: n.CrashTx, EpochDrops: n.EpochDrops,
		})
	}
	for _, sw := range c.switches() {
		t.Dropped += sw.dropped()
		t.PerSwitch = append(t.PerSwitch, testbed.SwitchTerms{
			Name: sw.Name, Rx: sw.RxFrames, Forwarded: sw.forwarded(),
			Dropped: sw.dropped(), InFlight: sw.inFlight(),
		})
	}
	if c.rec != nil {
		for _, m := range c.rec.migrations {
			f := c.Flows[m.Flow]
			mt := testbed.MigrationTerm{
				Flow: f.Spec.Name, OldHost: m.OldHost, NewHost: m.NewHost,
				At: m.At, ServedAtSwap: m.ServedAtSwap,
			}
			if f.PP != nil {
				mt.Sent, mt.Served, mt.Received = f.PP.Sent, f.PP.Served(), f.PP.Received
			} else if f.Flood != nil {
				mt.Sent, mt.Served = f.Flood.Sent, f.Flood.DeliveredCount()
				mt.Received = mt.Served
			}
			t.Migrations = append(t.Migrations, mt)
		}
	}
	t.InFlight = c.fabricInFlight()
	return t
}

// CheckInvariants verifies per-host and cluster-wide conservation. strict
// additionally demands zero in-flight state everywhere — call it only
// after Settle.
func (c *Cluster) CheckInvariants(strict bool) error {
	hosts := make([]*overlay.Host, len(c.Nodes))
	planes := make([]*fault.Plane, len(c.Nodes))
	for i, n := range c.Nodes {
		hosts[i] = n.Host
		planes[i] = n.Plane
	}
	return testbed.CheckCluster(hosts, planes, c.Terms(), strict)
}

// LatencyHists merges the echo flows' latency histograms by priority
// class, in flow-index order.
func (c *Cluster) LatencyHists() (hi, lo *stats.Histogram) {
	var his, los []*stats.Histogram
	for _, f := range c.Flows {
		if f.PP == nil {
			continue
		}
		if f.Spec.Hi {
			his = append(his, f.PP.Hist)
		} else {
			los = append(los, f.PP.Hist)
		}
	}
	return stats.MergeHistograms(his...), stats.MergeHistograms(los...)
}

// FlowCounts sums sent/received per class across the echo flows, and the
// floods' sink deliveries.
func (c *Cluster) FlowCounts() (hiSent, hiRecv, loSent, loRecv, floodSent, floodRecv uint64) {
	for _, f := range c.Flows {
		switch {
		case f.Flood != nil:
			floodSent += f.Flood.Sent
			floodRecv += f.Flood.DeliveredCount()
		case f.Spec.Hi:
			hiSent += f.PP.Sent
			hiRecv += f.PP.Received
		default:
			loSent += f.PP.Sent
			loRecv += f.PP.Received
		}
	}
	return
}

// AdmissionDenied sums the ingress buckets' refusals.
func (c *Cluster) AdmissionDenied() uint64 {
	var n uint64
	for _, node := range c.Nodes {
		n += node.Bucket.Denied()
	}
	return n
}

// FabricUtilization reports the egress ports' max and mean transmit
// occupancy at time at (use the measured horizon, before Settle extends
// the clocks).
func (c *Cluster) FabricUtilization(at sim.Time) (max, mean float64) {
	n := 0
	for _, sw := range c.switches() {
		for _, p := range sw.Ports {
			u := p.Utilization(at)
			if u > max {
				max = u
			}
			mean += u
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return
}

// FabricPortUtil reports every egress port's transmit occupancy at time
// at, keyed by port name ("tor00->host03", "spine->tor01", …) — the
// per-link view behind FabricUtilization's aggregate, published to the
// live operator surface at checkpoints.
func (c *Cluster) FabricPortUtil(at sim.Time) map[string]float64 {
	util := make(map[string]float64)
	for _, sw := range c.switches() {
		for _, p := range sw.Ports {
			util[p.Name] = p.Utilization(at)
		}
	}
	return util
}

// FabricDrops sums the switches' discards; FabricShed the subset of
// best-effort victims evicted for high-priority frames.
func (c *Cluster) FabricDrops() (dropped, shed uint64) {
	for _, sw := range c.switches() {
		dropped += sw.dropped()
		for _, p := range sw.Ports {
			shed += p.ShedLo
		}
	}
	return
}

// Pipes returns every observability pipeline in shard order (hosts, then
// ToRs, then the spine) — the deterministic merge order for digests.
func (c *Cluster) Pipes() []*obs.Pipeline {
	ps := make([]*obs.Pipeline, 0, len(c.Nodes)+len(c.Tors)+1)
	for _, n := range c.Nodes {
		ps = append(ps, n.Pipe)
	}
	for _, sw := range c.switches() {
		ps = append(ps, sw.Pipe)
	}
	return ps
}

// Horizon is the end of the measured interval (warmup + duration).
func (c *Cluster) Horizon() sim.Time { return c.horizon }
