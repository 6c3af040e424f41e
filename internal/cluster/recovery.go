package cluster

// Deterministic failure detection and live recovery. The subsystem is
// built from three deterministic clocks:
//
//   - Failures fire at exact event times on the failing component's own
//     shard: a scripted crash is an engine event on the host, a
//     plane-driven one comes from the host's seed-split fault timeline,
//     and a ToR-uplink failure runs on the ToR's engine (plane-driven
//     uplink faults get a per-ToR fault plane seeded from the switch
//     seed, so hosts' fault streams are untouched).
//
//   - Heartbeats are per-host engine events on an out-of-band control
//     network: every heartbeatEvery the host stamps lastBeat unless it is
//     down. Fabric partitions never delay heartbeats — a severed uplink
//     loses data frames, not liveness signal — so a ToR failure degrades
//     throughput without triggering migration.
//
//   - The controller runs at barrier boundaries (par.Group.OnBarrier),
//     quantized by a checkEvery ticker: all shards are quiescent, so it
//     may read any shard's state and mutate quiescent state, but it
//     never schedules events — which keeps the window schedule, and
//     therefore the Windows counter in golden fixtures, a pure function
//     of the event timeline. Detection latency is therefore the time to
//     the first control tick at least suspectAfter past the crash, in
//     simulated virtual time, identical at any worker count.
//
// Recovery of a suspected host: cordon it (no failback — a restarted
// host rejoins as ingress but never gets containers back), re-place its
// containers over the survivors with the cluster's own placement policy,
// rebind each flow's server app on the destination host, and publish a
// new routing snapshot with a strictly larger version through the
// cluster's atomic pointer. Frames in flight across the swap are either
// delivered under the old epoch or counted: at a down host as CrashRx,
// at an up host whose live route points elsewhere as EpochDrops — never
// lost silently, which is what keeps the fabric conservation equation
// closed across migrations.

import (
	"fmt"

	"prism/internal/fault"
	"prism/internal/par"
	"prism/internal/prio"
	rec "prism/internal/recover"
	"prism/internal/sim"
)

// Detector and controller timings (virtual time).
const (
	// heartbeatEvery is each host's heartbeat period on the out-of-band
	// control network.
	heartbeatEvery = 250 * sim.Microsecond
	// suspectAfter is the detector timeout: a host whose last heartbeat
	// is strictly older than this at a control tick is declared dead.
	suspectAfter = sim.Millisecond
	// checkEvery is the controller tick period, quantized to barrier
	// boundaries.
	checkEvery = 500 * sim.Microsecond
)

// retryBackoff shapes degraded-mode admission retry delays: 200µs
// doubling per attempt, capped at 2ms.
var retryBackoff = rec.Backoff{Base: 200 * sim.Microsecond, Max: 2 * sim.Millisecond}

// RecoveryConfig arms the failure detector and recovery controller.
type RecoveryConfig struct {
	// Script lists deterministic scripted failure events (in addition to
	// any plane-driven ones the hosts' fault configs enable via
	// fault.ClassHostCrash / fault.ClassTorLink).
	Script rec.Script
	// RetryMax bounds admission-refusal retries per frame while the
	// cluster is degraded; 0 disables retry.
	RetryMax int
	// DegradeAdmission scales every ingress bucket's refill rate by the
	// surviving-capacity fraction after each detection, so admission
	// tracks what the cluster can actually serve.
	DegradeAdmission bool
}

// Detection records one suspected host: when it actually went down and
// when the detector declared it — the difference is the detection
// latency in virtual time.
type Detection struct {
	Host      int
	DownAt    sim.Time
	SuspectAt sim.Time
}

// Migration records one container re-placement: the flow moved from
// OldHost to NewHost at the barrier epoch At, with ServedAtSwap requests
// already served by the old replica at that instant. The invariant
// checker reconciles old- and new-replica service against these records.
type Migration struct {
	Flow             int
	OldHost, NewHost int
	At               sim.Time
	ServedAtSwap     uint64
}

// recoveryState is the controller's working state.
type recoveryState struct {
	cfg    RecoveryConfig
	det    *rec.Detector
	policy rec.Policy
	// alive flags hosts not yet cordoned; aliveN counts them.
	alive  []bool
	aliveN int
	// torDown mirrors each rack's authoritative uplink state (written on
	// the ToR's shard at exact event times, read at barriers to keep the
	// spine's end of the link consistent).
	torDown []bool
	// degraded latches once any host is suspected; it gates admission
	// retry.
	degraded bool

	detections []Detection
	migrations []Migration
	torPlanes  []*fault.Plane

	// err latches a controller failure (re-placement over a full
	// surviving set); Run surfaces it after the barrier loop.
	err error
}

// initRecovery validates the config and wires the failure hooks; called
// at the end of New when Cfg.Recovery is set.
func (c *Cluster) initRecovery() error {
	rc := c.Cfg.Recovery
	if rc == nil {
		return nil
	}
	if err := rc.Script.Validate(c.Cfg.Hosts, c.Cfg.Fabric.Racks); err != nil {
		return err
	}
	policy := rec.Spread
	switch c.Cfg.Placement {
	case PlacePack:
		policy = rec.Pack
	case PlacePriority:
		policy = rec.Priority
	}
	alive := make([]bool, c.Cfg.Hosts)
	for i := range alive {
		alive[i] = true
	}
	c.rec = &recoveryState{
		cfg:     *rc,
		det:     rec.NewDetector(c.Cfg.Hosts, suspectAfter),
		policy:  policy,
		alive:   alive,
		aliveN:  c.Cfg.Hosts,
		torDown: make([]bool, len(c.Tors)),
	}
	for _, n := range c.Nodes {
		n := n
		n.Plane.OnHostCrash(func(at, restore sim.Time) { c.crashNode(n, at, restore) })
	}
	// Plane-driven uplink faults need a fault stream on the ToR's own
	// shard; seed it from the switch seed so host planes draw nothing
	// extra. The plane only arms ClassTorLink chains (it has no devices
	// or consumers, and no crash hook), so a config without the class
	// draws nothing at all.
	if c.Cfg.Host.Fault != nil && c.Spine != nil {
		for r, tor := range c.Tors {
			r := r
			fcfg := *c.Cfg.Host.Fault
			fcfg.Seed = switchSeed(c.Cfg.Seed, r) ^ faultSalt
			p := fault.NewPlane(tor.Shard.Eng, fcfg)
			p.OnTorLink(func(at, restore sim.Time) { c.torLinkDown(r, at, restore) })
			c.rec.torPlanes = append(c.rec.torPlanes, p)
		}
	}
	return nil
}

// armRecovery schedules the recovery subsystem's event chains; called
// from Run once the horizon is known. No-op without a RecoveryConfig.
func (c *Cluster) armRecovery() {
	r := c.rec
	if r == nil {
		return
	}
	for _, ev := range r.cfg.Script {
		ev := ev
		switch ev.Kind {
		case rec.HostCrash:
			n := c.Nodes[ev.Host]
			n.Host.Eng.At(ev.At, func() { c.crashNode(n, ev.At, ev.Until) })
		case rec.TorLinkDown:
			tor := ev.Tor
			c.Tors[tor].Shard.Eng.At(ev.At, func() { c.torLinkDown(tor, ev.At, ev.Until) })
		}
	}
	for _, n := range c.Nodes {
		c.armHeartbeat(n, heartbeatEvery)
	}
	for _, p := range r.torPlanes {
		p.Start(c.horizon)
	}
	c.ctrl = par.NewTicker(checkEvery, c.controlTick)
	c.armBarrier()
}

// armHeartbeat schedules host n's next heartbeat: stamp lastBeat unless
// the host is down, then re-arm. The chain stops at the horizon, so
// Settle's extended runs schedule nothing new.
func (c *Cluster) armHeartbeat(n *Node, at sim.Time) {
	if at > c.horizon {
		return
	}
	n.Host.Eng.At(at, func() {
		if !n.down {
			n.lastBeat = at
		}
		c.armHeartbeat(n, at+heartbeatEvery)
	})
}

// crashNode fail-stops host n at the wire (event context on n's shard).
// The host's engine keeps running internally — queued packets drain,
// apps fire — which is exactly what keeps its conservation ledgers
// closed; only the wire boundary changes (nothing in, nothing out). A
// positive restore schedules the restart.
func (c *Cluster) crashNode(n *Node, at, restore sim.Time) {
	if n.down {
		return
	}
	n.down = true
	n.downAt = at
	if restore > at {
		n.Host.Eng.At(restore, func() { c.restartNode(n, restore) })
	}
}

// restartNode brings a crashed host back as an ingress (its heartbeats
// and client flows resume). Its containers are not failed back: once the
// detector cordoned the host, migrated flows stay on their new homes.
func (c *Cluster) restartNode(n *Node, at sim.Time) {
	n.down = false
	n.lastBeat = at
}

// torLinkDown severs rack r's uplink at the ToR's end at exact event
// time (event context on the ToR's shard) and records the authoritative
// state for the barrier mirror. The spine's end is mirrored at the next
// control tick — the epoch-quantized analogue of remote carrier-loss
// detection. A positive restore schedules the local repair.
func (c *Cluster) torLinkDown(r int, at, restore sim.Time) {
	tor := c.Tors[r]
	tor.setPortDown(at, c.torUp[r], true)
	c.rec.torDown[r] = true
	if restore > at {
		tor.Shard.Eng.At(restore, func() {
			tor.setPortDown(restore, c.torUp[r], false)
			c.rec.torDown[r] = false
		})
	}
}

// controlTick is the barrier-quantized controller: collect heartbeats,
// recover newly suspected hosts, and mirror ToR uplink state onto the
// spine's ports. It runs on the coordinator with every shard quiescent;
// it mutates state but never schedules events. Ticks past the horizon
// (Settle's drain rounds) are ignored — no beats arrive after the
// horizon, and reacting to that silence would false-suspect every host.
func (c *Cluster) controlTick(at sim.Time) {
	r := c.rec
	if r == nil || at > c.horizon {
		return
	}
	for _, n := range c.Nodes {
		r.det.Beat(n.ID, n.lastBeat)
	}
	for _, h := range r.det.Suspects(at) {
		c.recoverHost(h, at)
	}
	if c.Spine != nil {
		for rack, down := range r.torDown {
			c.Spine.setPortDown(at, c.spineDown[rack], down)
		}
	}
}

// migrateFlow rebinds flow i's server app onto a fresh container on
// newHost, repoints its route in the pending routes map, and records the
// migration. Returns false (with r.err latched) when the rehome fails.
// Runs at a barrier (quiescent mutation only).
func (c *Cluster) migrateFlow(i, newHost int, at sim.Time, routes map[uint16]Route, version int) bool {
	r := c.rec
	fl := c.Flows[i]
	oldHost := c.Assignment[i]
	d := c.Nodes[newHost]
	ctr := d.Host.AddContainer(fmt.Sprintf("%s~%d", fl.Spec.Name, version))
	if fl.Spec.Hi {
		d.Host.DB.Add(prio.Rule{IP: ctr.IP, Port: SvcPort(i)})
	}
	var served uint64
	var err error
	if fl.PP != nil {
		served = fl.PP.Served()
		err = fl.PP.Rehome(ctr, c.Cfg.EchoCost)
	} else {
		served = fl.Flood.DeliveredCount()
		err = fl.Flood.Rehome(ctr, c.Cfg.SinkCost)
	}
	if err != nil {
		r.err = fmt.Errorf("cluster: rehoming %s: %w", fl.Spec.Name, err)
		return false
	}
	rt := routes[SvcPort(i)]
	rt.Host = newHost
	routes[SvcPort(i)] = rt
	c.Assignment[i] = newHost
	fl.HostID = newHost
	r.migrations = append(r.migrations, Migration{
		Flow: i, OldHost: oldHost, NewHost: newHost, At: at, ServedAtSwap: served,
	})
	return true
}

// recoverHost drains a suspected host: cordon it, re-place its
// containers across the survivors under the cluster's placement policy,
// rebind each flow's server app on its new home, and publish the new
// routing epoch. Runs at a barrier (quiescent mutation only).
func (c *Cluster) recoverHost(h int, at sim.Time) {
	r := c.rec
	if r.err != nil {
		return
	}
	n := c.Nodes[h]
	r.detections = append(r.detections, Detection{Host: h, DownAt: n.downAt, SuspectAt: at})
	if r.alive[h] {
		r.alive[h] = false
		r.aliveN--
	}
	r.degraded = true
	if r.cfg.DegradeAdmission {
		f := rec.CapacityFactor(r.aliveN, c.Cfg.Hosts)
		for _, node := range c.Nodes {
			node.Bucket.SetFactor(at, f)
		}
	}
	var orphans []int
	for i := range c.Flows {
		if c.Assignment[i] == h {
			orphans = append(orphans, i)
		}
	}
	if len(orphans) == 0 {
		return
	}
	hi := make([]bool, len(orphans))
	for k, i := range orphans {
		hi[k] = c.Flows[i].Spec.Hi
	}
	load := make([]int, len(c.Nodes))
	for i, node := range c.Nodes {
		load[i] = len(node.Host.Containers)
	}
	dest, err := rec.Replace(r.policy, hi, load, r.alive, c.Cfg.HostCap)
	if err != nil {
		r.err = fmt.Errorf("cluster: recovering host%02d at %d: %w", h, at, err)
		return
	}
	old := c.snap.Load()
	routes := old.cloneRoutes()
	for k, i := range orphans {
		if !c.migrateFlow(i, dest[k], at, routes, old.Version) {
			return
		}
	}
	// Under the Priority policy the crashed host is usually the packed
	// best-effort dump, and Replace necessarily re-packs that load onto a
	// survivor that is already serving prioritized flows — the isolation
	// the original placement established would silently die with the
	// host. Restore it in the same epoch: evict the prioritized flows
	// from every host that just absorbed best-effort orphans onto the
	// least-loaded survivors that did not.
	if r.policy == rec.Priority {
		dump := make([]bool, len(c.Nodes))
		dumped := false
		for k := range orphans {
			if !hi[k] {
				dump[dest[k]] = true
				dumped = true
			}
		}
		if dumped {
			count := make([]int, len(c.Nodes))
			for i, node := range c.Nodes {
				count[i] = len(node.Host.Containers)
			}
			target := func() int {
				best := -1
				for i := range c.Nodes {
					if !r.alive[i] || dump[i] || count[i] >= c.Cfg.HostCap {
						continue
					}
					if best < 0 || count[i] < count[best] {
						best = i
					}
				}
				return best
			}
			for i, fl := range c.Flows {
				if !fl.Spec.Hi || !dump[c.Assignment[i]] {
					continue
				}
				d := target()
				if d < 0 {
					break // every survivor is a dump host; leave in place
				}
				if !c.migrateFlow(i, d, at, routes, old.Version) {
					return
				}
				count[d]++
			}
		}
	}
	if err := c.SwapSnapshot(NewSnapshot(old.Version+1, routes)); err != nil {
		r.err = err
	}
}

// Detections returns the detector's suspicion records in detection
// order; nil without recovery armed.
func (c *Cluster) Detections() []Detection {
	if c.rec == nil {
		return nil
	}
	return c.rec.detections
}

// Migrations returns the recovery migrations in execution order; nil
// without recovery armed.
func (c *Cluster) Migrations() []Migration {
	if c.rec == nil {
		return nil
	}
	return c.rec.migrations
}

// RecoveryRetries sums the degraded-mode admission retries across the
// ingress nodes.
func (c *Cluster) RecoveryRetries() uint64 {
	var n uint64
	for _, node := range c.Nodes {
		n += node.Retries
	}
	return n
}

// CrashDrops sums frames absorbed at down hosts' wires: rx frames the
// fabric delivered into a dead host, tx frames a dead host tried to
// emit.
func (c *Cluster) CrashDrops() (rx, tx uint64) {
	for _, n := range c.Nodes {
		rx += n.CrashRx
		tx += n.CrashTx
	}
	return
}

// EpochDrops sums frames dropped because they crossed a routing-epoch
// swap in flight.
func (c *Cluster) EpochDrops() uint64 {
	var n uint64
	for _, node := range c.Nodes {
		n += node.EpochDrops
	}
	return n
}
