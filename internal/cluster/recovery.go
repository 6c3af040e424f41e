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

// Degraded-mode admission retry delays: retryBase doubling per attempt,
// capped at retryCap.
const (
	retryBase = 200 * sim.Microsecond
	retryCap  = 2 * sim.Millisecond
)

// retryDelay returns the wait before retry attempt n (1-based):
// retryBase·2^(n-1) clamped to retryCap.
func retryDelay(attempt int) sim.Time {
	d := retryBase
	for i := 1; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	return min(d, retryCap)
}

// EventKind selects a scripted failure class.
type EventKind int

const (
	// HostCrash fail-stops a host at the wire: nothing enters or leaves
	// it until the event's recovery time. The host's internal state is
	// preserved (a crash-restart with warm caches, not a reimage).
	HostCrash EventKind = iota
	// TorLinkDown severs a rack's ToR→spine uplink: frames queued at or
	// arriving for the uplink are dropped until the link restores.
	TorLinkDown
)

// String names the kind as scenario files spell it.
func (k EventKind) String() string {
	switch k {
	case HostCrash:
		return "host_crash"
	case TorLinkDown:
		return "tor_link_down"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// ParseEventKind resolves a kind by its String name.
func ParseEventKind(name string) (EventKind, error) {
	switch name {
	case "host_crash":
		return HostCrash, nil
	case "tor_link_down":
		return TorLinkDown, nil
	}
	return 0, fmt.Errorf("cluster: unknown event kind %q (valid: host_crash, tor_link_down)", name)
}

// Event is one scripted deterministic failure.
type Event struct {
	Kind EventKind
	// Host is the crashed host (HostCrash); Tor the rack whose spine
	// uplink fails (TorLinkDown).
	Host int
	Tor  int
	// At is the failure time; Until the recovery time (0 = never — the
	// failure lasts the rest of the run).
	At    sim.Time
	Until sim.Time
}

// Script is a deterministic failure timeline. Order does not matter; the
// cluster schedules each event at its own time.
type Script []Event

// Validate checks every event against the cluster's shape. hosts and
// racks are the topology bounds; racks < 2 means the fabric has no spine
// uplinks to sever.
func (s Script) Validate(hosts, racks int) error {
	for i, ev := range s {
		switch ev.Kind {
		case HostCrash:
			if ev.Host < 0 || ev.Host >= hosts {
				return fmt.Errorf("cluster: script[%d]: host %d out of range [0,%d)", i, ev.Host, hosts)
			}
		case TorLinkDown:
			if racks < 2 {
				return fmt.Errorf("cluster: script[%d]: tor_link_down needs a multi-rack fabric (got %d rack)", i, racks)
			}
			if ev.Tor < 0 || ev.Tor >= racks {
				return fmt.Errorf("cluster: script[%d]: tor %d out of range [0,%d)", i, ev.Tor, racks)
			}
		default:
			return fmt.Errorf("cluster: script[%d]: unknown event kind %d", i, int(ev.Kind))
		}
		if ev.At <= 0 {
			return fmt.Errorf("cluster: script[%d]: failure time must be positive, got %v", i, ev.At)
		}
		if ev.Until != 0 && ev.Until <= ev.At {
			return fmt.Errorf("cluster: script[%d]: recovery %v not after failure %v", i, ev.Until, ev.At)
		}
	}
	return nil
}

// RecoveryConfig arms the failure detector and recovery controller.
type RecoveryConfig struct {
	// Script lists deterministic scripted failure events (in addition to
	// any plane-driven ones the hosts' fault configs enable via
	// fault.ClassHostCrash / fault.ClassTorLink).
	Script Script
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
	cfg RecoveryConfig
	// alive flags hosts not yet cordoned; aliveN counts them. A host
	// leaves alive when the detector suspects it and never returns.
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
	alive := make([]bool, c.Cfg.Hosts)
	for i := range alive {
		alive[i] = true
	}
	c.rec = &recoveryState{
		cfg:     *rc,
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
		case HostCrash:
			n := c.Nodes[ev.Host]
			n.Host.Eng.At(ev.At, func() { c.crashNode(n, ev.At, ev.Until) })
		case TorLinkDown:
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

// controlTick is the barrier-quantized controller: recover every alive
// host whose last heartbeat is strictly older than suspectAfter, in host
// ID order, and mirror ToR uplink state onto the spine's ports. A
// heartbeat exactly suspectAfter old keeps the host alive; suspicion is
// permanent, since a recovered host leaves alive for good. It runs on
// the coordinator with every shard quiescent; it mutates state but never
// schedules events. Ticks past the horizon
// (Settle's drain rounds) are ignored — no beats arrive after the
// horizon, and reacting to that silence would false-suspect every host.
func (c *Cluster) controlTick(at sim.Time) {
	r := c.rec
	if r == nil || at > c.horizon {
		return
	}
	for _, n := range c.Nodes {
		if r.alive[n.ID] && at-n.lastBeat > suspectAfter {
			c.recoverHost(n.ID, at)
		}
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
	r.alive[h] = false
	r.aliveN--
	r.degraded = true
	if r.cfg.DegradeAdmission {
		// Scale admission to the surviving-capacity fraction.
		f := float64(r.aliveN) / float64(c.Cfg.Hosts)
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
	dest, err := replace(c.Cfg.Placement, hi, load, r.alive, c.Cfg.HostCap)
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
	// best-effort dump, and replace necessarily re-packs that load onto a
	// survivor that is already serving prioritized flows — the isolation
	// the original placement established would silently die with the
	// host. Restore it in the same epoch: evict the prioritized flows
	// from every host that just absorbed best-effort orphans onto the
	// least-loaded survivors that did not.
	if c.Cfg.Placement == PlacePriority {
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
			target := make([]bool, len(c.Nodes))
			for i, node := range c.Nodes {
				count[i] = len(node.Host.Containers)
				target[i] = r.alive[i] && !dump[i]
			}
			for i, fl := range c.Flows {
				if !fl.Spec.Hi || !dump[c.Assignment[i]] {
					continue
				}
				d := leastLoaded(count, target, c.Cfg.HostCap)
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
