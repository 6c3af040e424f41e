package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// --- control plane ---

func specsOf(pattern string) []ContainerSpec {
	specs := make([]ContainerSpec, len(pattern))
	for i, c := range pattern {
		specs[i] = ContainerSpec{Name: fmt.Sprintf("c%d", i), Hi: c == 'H'}
	}
	return specs
}

func TestPlaceSpread(t *testing.T) {
	got, err := Place(PlaceSpread, specsOf("LLLLL"), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Least-loaded with lowest-ID ties: round-robin.
	want := []int{0, 1, 2, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spread placement = %v, want %v", got, want)
	}
}

func TestPlacePack(t *testing.T) {
	got, err := Place(PlacePack, specsOf("LLLLL"), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pack placement = %v, want %v", got, want)
	}
}

func TestPlacePriority(t *testing.T) {
	// Best-effort packs hosts 0 and 1; the high-priority containers then
	// go to the emptiest hosts.
	got, err := Place(PlacePriority, specsOf("LLHLH"), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("priority placement = %v, want %v", got, want)
	}
}

func TestPlaceRespectsCapacity(t *testing.T) {
	for _, pol := range Placements {
		assign, err := Place(pol, specsOf("HLHLHLHL"), 2, 4)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		count := map[int]int{}
		for _, h := range assign {
			count[h]++
		}
		for h, n := range count {
			if n > 4 {
				t.Fatalf("%v: host %d got %d containers, cap 4", pol, h, n)
			}
		}
	}
	if _, err := Place(PlaceSpread, specsOf("LLLLL"), 2, 2); err == nil {
		t.Fatal("placement over capacity must error")
	}
}

// The re-placement cases run the same placer over live state: a nonzero
// load and dead hosts.

func TestReplaceSpread(t *testing.T) {
	load := []int{5, 1, 3, 2}
	alive := []bool{true, true, true, false}
	got, err := replace(PlaceSpread, make([]bool, 4), load, alive, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Least-loaded among alive: host 1 takes two (1→3, tying host 2),
	// the tie breaks to the lower ID, then host 2.
	want := []int{1, 1, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Spread = %v, want %v", got, want)
	}
}

func TestReplacePackSkipsDeadAndFull(t *testing.T) {
	load := []int{1, 1, 0}
	alive := []bool{true, false, true}
	got, err := replace(PlacePack, make([]bool, 3), load, alive, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Host 0 has one slot, host 1 is dead, host 2 takes the rest.
	want := []int{0, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pack = %v, want %v", got, want)
	}
}

func TestReplacePriority(t *testing.T) {
	load := []int{0, 0}
	alive := []bool{true, true}
	hi := []bool{true, false, false}
	got, err := replace(PlacePriority, hi, load, alive, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Best-effort packed onto host 0 first; the hi orphan then spreads to
	// the emptier host 1.
	want := []int{1, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Priority = %v, want %v", got, want)
	}
}

// TestReplaceFullClusterFailsLoudly: re-placement onto a full surviving
// set must error, never wrap around or overload a host.
func TestReplaceFullClusterFailsLoudly(t *testing.T) {
	load := []int{2, 2, 1}
	alive := []bool{true, true, false} // the host with room is dead
	_, err := replace(PlacePack, make([]bool, 1), load, alive, 2)
	if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
		t.Fatalf("full cluster: got %v, want loud capacity error", err)
	}
	// One free slot, two orphans: still loud.
	alive[2] = true
	_, err = replace(PlaceSpread, make([]bool, 2), load, alive, 2)
	if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
		t.Fatalf("over capacity by one: got %v, want loud capacity error", err)
	}
	// Exactly enough capacity succeeds.
	if _, err := replace(PlaceSpread, make([]bool, 1), load, alive, 2); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

func TestParsePlacement(t *testing.T) {
	for _, p := range Placements {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePlacement(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Fatal("unknown placement must error")
	}
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(Admission{Rate: 1_000_000, Burst: 4, HiReserve: 0.5})
	// Burst of 4; best-effort stops at the reserve floor of 2.
	if !b.Admit(0, false) || !b.Admit(0, false) {
		t.Fatal("best-effort should drain down to the reserve")
	}
	if b.Admit(0, false) {
		t.Fatal("best-effort must stop at the hi reserve")
	}
	if !b.Admit(0, true) || !b.Admit(0, true) {
		t.Fatal("high priority should use the reserve")
	}
	if b.Admit(0, true) {
		t.Fatal("empty bucket must refuse even high priority")
	}
	// 1M tokens/s → 1 token per µs of virtual time.
	if !b.Admit(2*sim.Microsecond, true) {
		t.Fatal("refill must restore tokens")
	}
	if b.DeniedLo != 1 || b.DeniedHi != 1 || b.AdmittedHi != 3 || b.AdmittedLo != 2 {
		t.Fatalf("counter mismatch: %+v", b)
	}
	var nilBucket *TokenBucket
	if !nilBucket.Admit(0, false) {
		t.Fatal("nil bucket admits everything")
	}
}

func TestSnapshotLookup(t *testing.T) {
	s := NewSnapshot(7, map[uint16]Route{
		SvcPort(0): {Host: 3, Hi: true},
		CliPort(0): {Host: 1, Hi: true, ToClient: true},
	})
	if s.Version != 7 || s.Len() != 2 {
		t.Fatalf("snapshot meta wrong: v%d len %d", s.Version, s.Len())
	}
	if r, ok := s.Lookup(SvcPort(0)); !ok || r.Host != 3 || !r.Hi || r.ToClient {
		t.Fatalf("service route wrong: %+v %v", r, ok)
	}
	if _, ok := s.Lookup(9999); ok {
		t.Fatal("unknown port must miss")
	}
}

// The dense port ranges Lookup reads are a cache of the route map: on
// seeded random tables (routes in the service range, the client range and
// below both, with holes) every one of the 65,536 ports must resolve
// exactly as the map does.
func TestSnapshotLookupMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		routes := map[uint16]Route{}
		for n := rng.Intn(3000); n > 0; n-- {
			var p int
			switch rng.Intn(4) {
			case 0:
				p = rng.Intn(SvcPortBase) // below both ranges
			case 1:
				p = SvcPortBase + rng.Intn(1200)
			case 2:
				p = CliPortBase + rng.Intn(1200)
			default:
				p = rng.Intn(1 << 16)
			}
			routes[uint16(p)] = Route{Host: rng.Intn(64), Hi: rng.Intn(2) == 0, ToClient: rng.Intn(2) == 0}
		}
		s := NewSnapshot(1, routes)
		for p := 0; p < 1<<16; p++ {
			got, gotOK := s.Lookup(uint16(p))
			want, wantOK := routes[uint16(p)]
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d port %d: Lookup = %+v %v, map has %+v %v", seed, p, got, gotOK, want, wantOK)
			}
		}
	}
}

// --- full cluster ---

func testHostSpec() testbed.Spec {
	return testbed.Spec{
		Mode:       prio.ModeSync,
		CStates:    cpu.C1,
		AppCStates: cpu.C1,
		NIC: nic.Config{
			RxUsecs:      8 * sim.Microsecond,
			RxFrames:     32,
			AdaptiveIdle: 100 * sim.Microsecond,
			GRO:          true,
		},
	}
}

// testSpecs builds a small mixed workload: one flood per two hosts, every
// fifth remaining container a high-priority echo, the rest best-effort
// echoes.
func testSpecs(hosts, n int) []ContainerSpec {
	specs := make([]ContainerSpec, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < hosts/2:
			specs = append(specs, ContainerSpec{Flood: true, Rate: 20_000, Ingress: i % hosts})
		case i%5 == 0:
			specs = append(specs, ContainerSpec{Hi: true, Rate: 2_000, Ingress: -1})
		default:
			specs = append(specs, ContainerSpec{Rate: 500, Ingress: -1})
		}
	}
	return specs
}

func smallConfig(seed uint64) Config {
	return Config{
		Hosts:     4,
		Placement: PlacePriority,
		Seed:      seed,
		Host:      testHostSpec(),
		Specs:     testSpecs(4, 24),
		Admission: &Admission{Rate: 200_000, Burst: 64, HiReserve: 0.25},
		Fabric:    FabricConfig{Racks: 2},
		Warmup:    2 * sim.Millisecond,
	}
}

func TestClusterRunsAndConserves(t *testing.T) {
	c, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	hiSent, hiRecv, loSent, loRecv, _, floodRecv := c.FlowCounts()
	if hiSent == 0 || hiRecv == 0 || loSent == 0 || loRecv == 0 || floodRecv == 0 {
		t.Fatalf("flows idle: hi %d/%d lo %d/%d flood %d", hiSent, hiRecv, loSent, loRecv, floodRecv)
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("mid-run invariants: %v", err)
	}
	// The ToRs must have carried traffic, and with two racks the spine
	// must have seen cross-rack flows.
	for _, tor := range c.Tors {
		if tor.RxFrames == 0 {
			t.Fatalf("%s saw no frames", tor.Name)
		}
	}
	if c.Spine == nil || c.Spine.RxFrames == 0 {
		t.Fatal("spine saw no cross-rack frames")
	}
	if fabricCounters(c)[0] == 0 {
		t.Fatal("no frames entered host00's uplink")
	}
	// Settle and apply the zero-leak assertion.
	if err := c.Settle(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after settle: %v", err)
	}
	if got := c.fabricInFlight(); got != 0 {
		t.Fatalf("settled fabric holds %d frames", got)
	}
}

// TestCheckInvariantsLedger settles a small cluster that lost a host
// mid-run (so it carries migrations) under injected frame corruption,
// then breaks one host or migration counter at a time: the check must
// name the break, and restoring the counter must restore balance. The
// fabric and switch equations are broken from outside the package, in
// internal/testbed's TestCheckCluster tests.
func TestCheckInvariantsLedger(t *testing.T) {
	cfg := recoverySmallConfig(21)
	cfg.Host.Fault = &fault.Config{Rate: 0.3, Classes: fault.ClassCorrupt}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	var corrupted uint64
	for _, n := range c.Nodes {
		corrupted += n.Plane.Stats().Corrupted
	}
	if corrupted == 0 || len(c.Migrations()) == 0 {
		t.Fatalf("setup: %d corrupted frames, %d migrations; want both", corrupted, len(c.Migrations()))
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("settled cluster flagged: %v", err)
	}
	expect := func(what string, wants ...string) {
		t.Helper()
		err := c.CheckInvariants(true)
		if err == nil {
			t.Fatalf("%s not detected", what)
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error lacks %q: %v", what, w, err)
			}
		}
	}
	restored := func(what string) {
		t.Helper()
		if err := c.CheckInvariants(true); err != nil {
			t.Fatalf("balance not restored after %s: %v", what, err)
		}
	}

	// A host's own ledger: cluster totals must not wash out one bad host.
	c.Nodes[1].Host.RxWire++
	expect("phantom wire arrival", "host1: wire conservation broken")
	c.Nodes[1].Host.RxWire--
	restored("phantom wire arrival")

	m := &c.rec.migrations[0]
	_, served, _ := c.replicaCounts(*m)
	swap := m.ServedAtSwap
	m.ServedAtSwap = served + 1
	expect("migration over-count", "old replica had served")
	m.ServedAtSwap = swap
	restored("migration over-count")
	var pp *traffic.PingPong
	for _, m := range c.Migrations() {
		if f := c.Flows[m.Flow].PP; f != nil && f.Served() > 0 {
			pp = f
			break
		}
	}
	if pp == nil {
		t.Fatal("setup: no migrated echo flow served anything")
	}
	sent, received := pp.Sent, pp.Received
	pp.Sent = pp.Served() - 1
	expect("service beyond emissions", "replicas served")
	pp.Sent = sent
	pp.Received = pp.Served() + 1
	expect("delivery beyond service", "client received")
	pp.Received = received
	restored("replica counters")
}

// fabricCounters lists every counter the fabric conservation equations
// read: each node's fabric-boundary counters, each switch's arrivals,
// forwards, drops and in-flight frames, each migration with its
// replicas' service counts, and the frames still riding the fabric.
func fabricCounters(c *Cluster) []uint64 {
	var out []uint64
	for _, n := range c.Nodes {
		out = append(out, n.Injected, n.FromFabric, n.ToClients, n.Misrouted, n.CrashRx, n.CrashTx, n.EpochDrops)
	}
	for _, sw := range c.switches() {
		out = append(out, sw.RxFrames, sw.forwarded(), sw.dropped(), uint64(sw.inFlight()))
	}
	for _, m := range c.Migrations() {
		sent, served, received := c.replicaCounts(m)
		out = append(out, uint64(m.Flow), uint64(m.OldHost), uint64(m.NewHost), uint64(m.At), m.ServedAtSwap,
			sent, served, received)
	}
	return append(out, uint64(c.fabricInFlight()))
}

// clusterFingerprint captures everything a deterministic run must
// reproduce: per-flow delivered sample sequences, the fabric counters,
// flow counts, and the merged metrics exposition.
type clusterFingerprint struct {
	samples [][]uint64
	terms   []uint64
	counts  [6]uint64
	metrics string
	windows uint64
}

func runFingerprint(t *testing.T, cfg Config, workers int) clusterFingerprint {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]uint64, len(c.Flows))
	for _, f := range c.Flows {
		if f.PP == nil {
			continue
		}
		i := f.Index
		f.PP.OnSample = func(seq uint64, lat sim.Time) {
			samples[i] = append(samples[i], seq, uint64(lat))
		}
	}
	if err := c.Run(20*sim.Millisecond, workers); err != nil {
		t.Fatal(err)
	}
	var regs []*obs.Registry
	for _, p := range c.Pipes() {
		regs = append(regs, p.M)
	}
	hiS, hiR, loS, loR, flS, flR := c.FlowCounts()
	return clusterFingerprint{
		samples: samples,
		terms:   fabricCounters(c),
		counts:  [6]uint64{hiS, hiR, loS, loR, flS, flR},
		metrics: obs.PrometheusText(obs.MergeRegistries(regs...)),
		windows: c.Group.Windows,
	}
}

func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	base := runFingerprint(t, smallConfig(3), 1)
	if len(base.metrics) == 0 {
		t.Fatal("no metrics collected")
	}
	for _, workers := range []int{2, 4} {
		got := runFingerprint(t, smallConfig(3), workers)
		if !reflect.DeepEqual(got.samples, base.samples) {
			t.Fatalf("workers=%d: delivered sample sequences diverge", workers)
		}
		if !reflect.DeepEqual(got.terms, base.terms) {
			t.Fatalf("workers=%d: terms diverge: %+v vs %+v", workers, got.terms, base.terms)
		}
		if got.counts != base.counts {
			t.Fatalf("workers=%d: flow counts diverge: %v vs %v", workers, got.counts, base.counts)
		}
		if got.metrics != base.metrics {
			t.Fatalf("workers=%d: merged metrics diverge", workers)
		}
		if got.windows != base.windows {
			t.Fatalf("workers=%d: window schedule diverges: %d vs %d", workers, got.windows, base.windows)
		}
	}
}

func TestClusterAdmissionShedsLowFirst(t *testing.T) {
	cfg := smallConfig(5)
	// Starve the buckets so the floods overrun admission.
	cfg.Admission = &Admission{Rate: 5_000, Burst: 16, HiReserve: 0.5}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var deniedLo, admittedHi uint64
	for _, n := range c.Nodes {
		deniedLo += n.Bucket.DeniedLo
		admittedHi += n.Bucket.AdmittedHi
	}
	if deniedLo == 0 {
		t.Fatal("starved buckets refused no best-effort frames")
	}
	if admittedHi == 0 {
		t.Fatal("the hi reserve admitted no high-priority frames")
	}
	if c.AdmissionDenied() == 0 {
		t.Fatal("AdmissionDenied lost the refusals")
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWithFaultsStaysDeterministic(t *testing.T) {
	cfg := smallConfig(9)
	cfg.Host.Fault = &fault.Config{Rate: 0.2}
	base := runFingerprint(t, cfg, 1)
	got := runFingerprint(t, cfg, 3)
	if !reflect.DeepEqual(got.samples, base.samples) {
		t.Fatal("faulted cluster diverges across worker counts")
	}
	if got.metrics != base.metrics {
		t.Fatal("faulted cluster metrics diverge across worker counts")
	}
}

func TestClusterFaultPlanesInjectPerHost(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Host.Fault = &fault.Config{Rate: 0.3}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var injected uint64
	seen := map[uint64]bool{}
	for _, n := range c.Nodes {
		if n.Plane == nil {
			t.Fatalf("%s built without a plane", n.Name)
		}
		st := n.Plane.Stats()
		sum := st.Corrupted + st.LinkDropped + st.Jittered + st.OverrunDropped +
			st.IRQsLost + st.IRQsSpurious + st.SoftirqStalls + st.ConsumerStalls
		injected += sum
		seen[sum] = true
	}
	if injected == 0 {
		t.Fatal("no faults injected anywhere")
	}
	if len(seen) < 2 {
		t.Fatal("per-host fault streams look identical — seeds not derived per host")
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after faulted settle: %v", err)
	}
}

func TestClusterFabricObservability(t *testing.T) {
	c, err := New(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	var regs []*obs.Registry
	for _, p := range c.Pipes() {
		regs = append(regs, p.M)
	}
	merged := obs.MergeRegistries(regs...)
	if merged.CounterValue("prism_fabric_frames_total", obs.Labels{}) == 0 {
		t.Fatal("no fabric spans recorded")
	}
	text := obs.PrometheusText(merged)
	for _, want := range []string{`shard="host00"`, `shard="tor00"`, `shard="spine"`, "prism_fabric_frames_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged exposition lacks %s", want)
		}
	}
	max, mean := c.FabricUtilization(c.Horizon())
	if max <= 0 || mean <= 0 || max > 1 || mean > max {
		t.Fatalf("implausible fabric utilization max=%v mean=%v", max, mean)
	}
}

func TestClusterFabricOverflowShedsLow(t *testing.T) {
	// A slow, shallow egress port: the flood's bursts overflow it, and
	// high-priority arrivals evict queued best-effort frames.
	cfg := Config{
		Hosts:     2,
		Placement: PlacePack,
		Seed:      17,
		Host:      testHostSpec(),
		Specs: []ContainerSpec{
			{Name: "bg", Flood: true, Rate: 60_000, Ingress: 1},
			{Name: "hi", Hi: true, Rate: 20_000, Ingress: 1},
		},
		Fabric: FabricConfig{Racks: 1, linkGbps: 0.5, queueCap: 2},
		Warmup: sim.Millisecond,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	dropped, shed := c.FabricDrops()
	if dropped == 0 {
		t.Fatal("saturated port dropped nothing")
	}
	if shed == 0 {
		t.Fatal("high-priority arrivals shed no best-effort frames")
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("invariants with fabric drops: %v", err)
	}
	if err := c.Settle(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after lossy run: %v", err)
	}
}

// CheckScale's limits are inclusive: the last container that fits is
// accepted and one more is rejected with the limit it broke.
func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		hosts, hostCap, containers int
		want                       string
	}{
		{2, 200, 400, ""},
		{2, 200, 401, "401 containers exceed cluster capacity 400 (2 hosts × 200)"},
		{100, 200, maxContainers, ""},
		{200, 200, maxContainers + 1, "20001 containers exceed the port space (at most 20000)"},
		{0, 200, 10, "placement needs at least one host"},
		{4, 0, 10, "host capacity must be positive"},
	} {
		err := CheckScale(tc.hosts, tc.hostCap, tc.containers)
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckScale(%d, %d, %d) = %v, want %q", tc.hosts, tc.hostCap, tc.containers, err, tc.want)
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Hosts: 2}); err == nil {
		t.Fatal("empty spec list must error")
	}
	cfg := smallConfig(1)
	cfg.Hosts = 1
	cfg.HostCap = 4
	if _, err := New(cfg); err == nil {
		t.Fatal("over-capacity placement must error")
	}
}
