package cluster

import (
	"fmt"

	"prism/internal/sim"
)

// The control plane is deliberately simple and wholly deterministic: a
// placement decision made at build time, an immutable routing snapshot
// distributed to every switch, and a per-host token bucket at fabric
// ingress. Real cluster managers converge to the same shape — a
// scheduler output plus a versioned route table pushed to the dataplane.
// Each snapshot is immutable; live recovery (recovery.go) replaces the
// whole snapshot through one atomic pointer at a barrier epoch, so
// switches on different shards always read a consistent table and the
// parallel simulation stays bit-identical: within a window every shard
// sees the same version, and swaps happen only while all shards are
// quiescent.

// Placement selects the container scheduling policy.
type Placement int

const (
	// PlaceSpread balances container count across hosts (the default
	// Kubernetes-like least-loaded choice).
	PlaceSpread Placement = iota
	// PlacePack fills hosts in order, moving on only when one is full —
	// the bin-packing / consolidation policy.
	PlacePack
	// PlacePriority packs best-effort containers first, then spreads the
	// high-priority ones across the least-loaded hosts, so prioritized
	// flows land where per-host contention is lowest.
	PlacePriority
)

// Placements lists the compared policies in presentation order.
var Placements = []Placement{PlaceSpread, PlacePack, PlacePriority}

// String names the policy as experiments report it.
func (p Placement) String() string {
	switch p {
	case PlaceSpread:
		return "spread"
	case PlacePack:
		return "pack"
	case PlacePriority:
		return "priority"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// ParsePlacement resolves a policy by its String name.
func ParsePlacement(name string) (Placement, error) {
	for _, p := range Placements {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown placement policy %q (valid: spread, pack, priority)", name)
}

// ContainerSpec declares one container workload for the placer: its
// priority class, offered rate, shape (echo server or flood sink), and
// the host whose client machine originates its flow.
type ContainerSpec struct {
	Name string
	// Hi marks the container's flow as high priority: the control plane
	// installs a rule in the destination host's priority database and
	// the fabric serves its frames from the strict-priority queue.
	Hi bool
	// Rate is the flow's offered packets per second.
	Rate float64
	// Flood selects an open-loop UDP flood into a counting sink instead
	// of a latency-measured echo flow.
	Flood bool
	// Ingress is the host whose client machine sends this flow (< 0
	// derives a deterministic spread from the container index).
	Ingress int
}

// Place assigns each container to a host, deterministically: ties break
// toward the lowest host ID, and the input order is part of the contract
// (the same specs always yield the same assignment). hostCap bounds
// containers per host; it errors when the policy cannot respect it.
func Place(policy Placement, specs []ContainerSpec, hosts, hostCap int) ([]int, error) {
	if err := CheckScale(hosts, hostCap, len(specs)); err != nil {
		return nil, err
	}
	hi := make([]bool, len(specs))
	alive := make([]bool, hosts)
	for i, s := range specs {
		hi[i] = s.Hi
	}
	for h := range alive {
		alive[h] = true
	}
	return replace(policy, hi, make([]int, hosts), alive, hostCap)
}

// replace is the one placer behind build-time placement and recovery's
// re-placement: it assigns containers of priority classes hi to hosts,
// starting from load (every host's current container count) and using
// only the hosts alive marks, never more than hostCap per host. Spread
// picks the least-loaded host, Pack the first with room, and Priority
// packs the best-effort containers before spreading the high-priority
// ones across the hosts the packing left emptiest. It fails loudly —
// never wraps around — when the alive hosts cannot absorb them all.
func replace(policy Placement, hi []bool, load []int, alive []bool, hostCap int) ([]int, error) {
	free := 0
	for h, n := range load {
		if alive[h] && n < hostCap {
			free += hostCap - n
		}
	}
	if len(hi) > free {
		return nil, fmt.Errorf("cluster: %d orphaned containers exceed surviving capacity %d (cap %d per host)",
			len(hi), free, hostCap)
	}
	count := append([]int(nil), load...)
	assign := make([]int, len(hi))
	place := func(i int, pick func(count []int, usable []bool, hostCap int) int) {
		h := pick(count, alive, hostCap)
		assign[i] = h
		count[h]++
	}
	switch policy {
	case PlaceSpread:
		for i := range hi {
			place(i, leastLoaded)
		}
	case PlacePack:
		for i := range hi {
			place(i, firstFit)
		}
	case PlacePriority:
		for i, isHi := range hi {
			if !isHi {
				place(i, firstFit)
			}
		}
		for i, isHi := range hi {
			if isHi {
				place(i, leastLoaded)
			}
		}
	default:
		return nil, fmt.Errorf("cluster: unknown placement policy %d", int(policy))
	}
	return assign, nil
}

// leastLoaded returns the usable host holding the fewest containers below
// hostCap, ties to the lowest ID; -1 when none has room.
func leastLoaded(count []int, usable []bool, hostCap int) int {
	best := -1
	for h, n := range count {
		if usable[h] && n < hostCap && (best < 0 || n < count[best]) {
			best = h
		}
	}
	return best
}

// firstFit returns the lowest-ID usable host below hostCap; -1 when none
// has room.
func firstFit(count []int, usable []bool, hostCap int) int {
	for h, n := range count {
		if usable[h] && n < hostCap {
			return h
		}
	}
	return -1
}

// Route is one snapshot entry: where frames for a destination port go.
type Route struct {
	// Host is the destination host ID — the container's host for service
	// ports, the flow's ingress host for client (reply) ports.
	Host int
	// Hi selects the fabric's strict-priority queue.
	Hi bool
	// ToClient marks a reply route: the destination host delivers the
	// frame to its client demux instead of its NIC.
	ToClient bool
}

// Snapshot is an immutable port→route table, versioned like a real
// control plane's pushed state. Nothing mutates a snapshot after
// construction, so concurrent reads from parallel shards are safe and
// deterministic; reconfiguration builds a new snapshot (copying the
// route map — the old snapshot still aliases its own) with a strictly
// larger version and swaps it in atomically at a barrier.
//
// The map is the source of truth. Every switch hop resolves a port, so
// NewSnapshot also lays the service and client port ranges out as slices
// indexed by offset from their base; Lookup reads those and falls back to
// the map only for ports outside them.
type Snapshot struct {
	Version  int
	routes   map[uint16]Route
	svc, cli []denseRoute
}

// denseRoute is one slot of a dense port range; ok is false for a port in
// the range that has no route.
type denseRoute struct {
	Route
	ok bool
}

// NewSnapshot builds a snapshot from a route table (the map is not
// copied; callers must not retain it).
func NewSnapshot(version int, routes map[uint16]Route) *Snapshot {
	return &Snapshot{
		Version: version,
		routes:  routes,
		svc:     denseRange(routes, SvcPortBase, CliPortBase),
		cli:     denseRange(routes, CliPortBase, 1<<16),
	}
}

// denseRange lays out the routes for ports in [lo, hi) as a slice indexed
// by port-lo, as long as the highest such port needs.
func denseRange(routes map[uint16]Route, lo, hi int) []denseRoute {
	n := 0
	for p := range routes {
		if int(p) >= lo && int(p) < hi {
			n = max(n, int(p)-lo+1)
		}
	}
	out := make([]denseRoute, n)
	for p, r := range routes {
		if int(p) >= lo && int(p) < hi {
			out[int(p)-lo] = denseRoute{r, true}
		}
	}
	return out
}

// Lookup resolves a destination port.
func (s *Snapshot) Lookup(port uint16) (Route, bool) {
	if i := int(port) - SvcPortBase; i >= 0 && i < len(s.svc) {
		return s.svc[i].Route, s.svc[i].ok
	}
	if i := int(port) - CliPortBase; i >= 0 && i < len(s.cli) {
		return s.cli[i].Route, s.cli[i].ok
	}
	r, ok := s.routes[port]
	return r, ok
}

// Len reports the number of installed routes.
func (s *Snapshot) Len() int { return len(s.routes) }

// cloneRoutes copies the route table — the first step of building a
// successor snapshot without mutating the published one.
func (s *Snapshot) cloneRoutes() map[uint16]Route {
	m := make(map[uint16]Route, len(s.routes))
	for k, v := range s.routes {
		m[k] = v
	}
	return m
}

// Admission configures the per-host ingress token bucket.
type Admission struct {
	// Rate is tokens (frames) per second; Burst the bucket depth.
	Rate  float64
	Burst float64
	// HiReserve is the fraction of Burst only high-priority frames may
	// consume: best-effort admission stops once the bucket drains to
	// HiReserve×Burst, keeping headroom for prioritized flows — the
	// admission-control analogue of the paper's shed policy.
	HiReserve float64
}

// TokenBucket is a deterministic virtual-time token bucket: refill is a
// pure function of the event clock, so admission decisions are identical
// for any worker count.
type TokenBucket struct {
	// rate is the live refill rate; base the configured one (rate =
	// base × capacity factor while the cluster is degraded).
	rate   float64
	base   float64
	burst  float64
	floor  float64
	tokens float64
	last   sim.Time

	AdmittedHi, AdmittedLo uint64
	DeniedHi, DeniedLo     uint64
}

// NewTokenBucket builds a bucket that starts full.
func NewTokenBucket(a Admission) *TokenBucket {
	if a.Rate <= 0 || a.Burst <= 0 {
		return nil
	}
	return &TokenBucket{
		rate:   a.Rate,
		base:   a.Rate,
		burst:  a.Burst,
		floor:  a.HiReserve * a.Burst,
		tokens: a.Burst,
	}
}

// SetFactor rescales the refill rate to factor × the configured rate —
// the capacity-aware degraded-mode refill: with a fraction of the
// cluster down, ingress admission shrinks proportionally instead of
// funneling the full offered load at the survivors. Refill accrued at
// the old rate is settled up to now first, so the change is exact at the
// boundary. Call only from quiescent points (barriers); nil-safe.
func (b *TokenBucket) SetFactor(now sim.Time, factor float64) {
	if b == nil {
		return
	}
	if now > b.last {
		b.tokens += float64(now-b.last) * b.rate / float64(sim.Second)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if factor < 0 {
		factor = 0
	}
	b.rate = b.base * factor
}

// Admit charges one token for a frame at virtual time now. A nil bucket
// admits everything (admission disabled). Best-effort frames are refused
// once the level falls to the high-priority reserve.
func (b *TokenBucket) Admit(now sim.Time, hi bool) bool {
	if b == nil {
		return true
	}
	if now > b.last {
		b.tokens += float64(now-b.last) * b.rate / float64(sim.Second)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	avail := b.tokens
	if !hi {
		avail -= b.floor
	}
	if avail < 1 {
		if hi {
			b.DeniedHi++
		} else {
			b.DeniedLo++
		}
		return false
	}
	b.tokens--
	if hi {
		b.AdmittedHi++
	} else {
		b.AdmittedLo++
	}
	return true
}

// Denied returns the bucket's total refusals (zero for nil).
func (b *TokenBucket) Denied() uint64 {
	if b == nil {
		return 0
	}
	return b.DeniedHi + b.DeniedLo
}
