package cluster

import (
	"reflect"
	"strings"
	"testing"

	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/obs"
	"prism/internal/sim"
)

// --- token bucket degraded-mode refill ---

func TestTokenBucketRefillAtDepletionBoundary(t *testing.T) {
	// 1M tokens/s = exactly one token per microsecond of virtual time.
	b := NewTokenBucket(Admission{Rate: 1_000_000, Burst: 4})
	for i := 0; i < 4; i++ {
		if !b.Admit(0, false) {
			t.Fatalf("admit %d of the initial burst refused", i)
		}
	}
	if b.Admit(0, false) {
		t.Fatal("empty bucket admitted a frame")
	}
	// Exactly one refill interval later the bucket holds exactly one
	// token: the admit at the boundary must succeed, and the very next
	// one at the same instant must not.
	if !b.Admit(sim.Microsecond, false) {
		t.Fatal("boundary refill token refused")
	}
	if b.Admit(sim.Microsecond, false) {
		t.Fatal("second admit at the refill boundary succeeded")
	}
}

func TestTokenBucketSetFactor(t *testing.T) {
	b := NewTokenBucket(Admission{Rate: 1_000_000, Burst: 8})
	for i := 0; i < 8; i++ {
		b.Admit(0, false)
	}
	// 4µs at the full rate accrued 4 tokens; SetFactor must settle them
	// before halving the rate.
	b.SetFactor(4*sim.Microsecond, 0.5)
	for i := 0; i < 4; i++ {
		if !b.Admit(4*sim.Microsecond, false) {
			t.Fatalf("token %d accrued before SetFactor lost", i)
		}
	}
	if b.Admit(4*sim.Microsecond, false) {
		t.Fatal("settled bucket over-admitted")
	}
	// From here refill runs at 500k/s: 2µs buys exactly one token.
	if !b.Admit(6*sim.Microsecond, false) {
		t.Fatal("degraded refill produced no token after 2µs")
	}
	if b.Admit(6*sim.Microsecond, false) {
		t.Fatal("degraded refill produced more than one token in 2µs")
	}
	// Restoring factor 1 returns to the configured base rate.
	b.SetFactor(6*sim.Microsecond, 1)
	if !b.Admit(7*sim.Microsecond, false) {
		t.Fatal("restored rate produced no token after 1µs")
	}
	var nilBucket *TokenBucket
	nilBucket.SetFactor(0, 0.5) // must not panic
}

// --- snapshot swap ---

func TestSwapSnapshotVersionMonotonic(t *testing.T) {
	c, err := New(smallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Snapshot().Version; v != 1 {
		t.Fatalf("fresh cluster snapshot version = %d, want 1", v)
	}
	routes := c.Snapshot().cloneRoutes()
	if err := c.SwapSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := c.SwapSnapshot(NewSnapshot(1, routes)); err == nil {
		t.Fatal("same-version snapshot accepted")
	}
	if err := c.SwapSnapshot(NewSnapshot(0, routes)); err == nil {
		t.Fatal("older snapshot accepted")
	}
	if err := c.SwapSnapshot(NewSnapshot(2, routes)); err != nil {
		t.Fatal(err)
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("swap not visible: version %d", v)
	}
	if err := c.SwapSnapshot(NewSnapshot(2, routes)); err == nil ||
		!strings.Contains(err.Error(), "must increase") {
		t.Fatalf("equal-version re-swap: got %v", err)
	}
}

// --- scripted host crash, end to end ---

func recoverySmallConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.Recovery = &RecoveryConfig{
		Script:           Script{{Kind: HostCrash, Host: 1, At: 8 * sim.Millisecond}},
		RetryMax:         3,
		DegradeAdmission: true,
	}
	return cfg
}

func TestClusterScriptedCrashRecovers(t *testing.T) {
	c, err := New(recoverySmallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	var orphaned []int
	for i, h := range c.Assignment {
		if h == 1 {
			orphaned = append(orphaned, i)
		}
	}
	if len(orphaned) == 0 {
		t.Fatal("test setup: no flows placed on host 1")
	}
	if err := c.Run(30*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}

	dets := c.Detections()
	if len(dets) != 1 || dets[0].Host != 1 {
		t.Fatalf("detections = %+v, want exactly host 1", dets)
	}
	if dets[0].DownAt != 8*sim.Millisecond {
		t.Fatalf("DownAt = %d, want the scripted crash time", dets[0].DownAt)
	}
	lat := dets[0].SuspectAt - dets[0].DownAt
	if lat < suspectAfter || lat > suspectAfter+heartbeatEvery+checkEvery {
		t.Fatalf("detection latency %v outside [timeout, timeout+beat+tick]", lat)
	}

	migs := c.Migrations()
	if len(migs) != len(orphaned) {
		t.Fatalf("migrated %d flows, want all %d orphans", len(migs), len(orphaned))
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("snapshot version after one recovery = %d, want 2", v)
	}
	for _, m := range migs {
		if m.OldHost != 1 || m.NewHost == 1 {
			t.Fatalf("migration %+v did not leave host 1", m)
		}
		if c.Assignment[m.Flow] != m.NewHost {
			t.Fatalf("assignment not updated for flow %d", m.Flow)
		}
		rt, ok := c.Snapshot().Lookup(SvcPort(m.Flow))
		if !ok || rt.Host != m.NewHost {
			t.Fatalf("live route for flow %d = %+v, want host %d", m.Flow, rt, m.NewHost)
		}
	}
	// The new replicas must actually serve: at least one migrated flow's
	// service count grew past its at-swap value.
	grew := false
	for _, m := range migs {
		if _, served, _ := c.replicaCounts(m); served > m.ServedAtSwap {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no migrated flow served anything after the swap")
	}
	if rx, _ := c.CrashDrops(); rx == 0 {
		t.Fatal("no frames were absorbed at the dead host's wire")
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants across a migration: %v", err)
	}
}

func TestClusterRecoveryDeterministicAcrossWorkers(t *testing.T) {
	base := runFingerprint(t, recoverySmallConfig(23), 1)
	for _, workers := range []int{2, 4} {
		got := runFingerprint(t, recoverySmallConfig(23), workers)
		if !reflect.DeepEqual(got.samples, base.samples) {
			t.Fatalf("workers=%d: delivered sample sequences diverge", workers)
		}
		if !reflect.DeepEqual(got.terms, base.terms) {
			t.Fatalf("workers=%d: terms diverge", workers)
		}
		if got.metrics != base.metrics {
			t.Fatalf("workers=%d: merged metrics diverge", workers)
		}
		if got.windows != base.windows {
			t.Fatalf("workers=%d: window schedule diverges: %d vs %d", workers, got.windows, base.windows)
		}
	}
}

// --- plane-driven crash ---

func TestClusterPlaneDrivenCrash(t *testing.T) {
	cfg := smallConfig(36)
	// Rate 5/12 stretches the plane's 25ms mean crash gap to 60ms.
	cfg.Host.Fault = &fault.Config{Rate: 5.0 / 12, Classes: fault.ClassHostCrash}
	cfg.Recovery = &RecoveryConfig{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(40*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var crashes uint64
	for _, n := range c.Nodes {
		crashes += n.Plane.Stats().HostCrashes
	}
	if crashes == 0 {
		t.Fatal("fault planes injected no crashes")
	}
	if len(c.Detections()) == 0 {
		t.Fatal("plane-driven crash went undetected")
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after plane-driven crashes: %v", err)
	}
}

// TestPriorityRecoveryEvictsHiFromDumpHost: under PlacePriority the
// crashed host's best-effort orphan is packed onto the first survivor,
// which already serves a prioritized flow. Recovery must move that flow
// to a survivor that took no best-effort orphan, although the dump host
// itself ties for least loaded.
func TestPriorityRecoveryEvictsHiFromDumpHost(t *testing.T) {
	cfg := Config{
		Hosts: 3, HostCap: 3, Placement: PlacePriority, Seed: 1,
		Host: testHostSpec(), Specs: specsOf("LHHH"),
		Fabric: FabricConfig{Racks: 1}, Recovery: &RecoveryConfig{},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 0}; !reflect.DeepEqual(c.Assignment, want) {
		t.Fatalf("placement = %v, want %v", c.Assignment, want)
	}
	c.horizon = sim.Second
	c.recoverHost(0, sim.Millisecond)
	if c.rec.err != nil {
		t.Fatal(c.rec.err)
	}
	// c0 (best effort) lands on host 1 and c3 (hi) on host 2; host 1's
	// hi flow c1 then moves to host 2, the survivor without a dump.
	if want := []int{1, 2, 2, 2}; !reflect.DeepEqual(c.Assignment, want) {
		t.Fatalf("after recovery = %v, want %v", c.Assignment, want)
	}
}

// --- ToR uplink failure ---

func TestClusterTorLinkDownWindow(t *testing.T) {
	cfg := smallConfig(41)
	cfg.Recovery = &RecoveryConfig{
		Script: Script{{
			Kind: TorLinkDown, Tor: 1,
			At: 6 * sim.Millisecond, Until: 12 * sim.Millisecond,
		}},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(25*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if n := c.torUp[1].DownDropped; n == 0 {
		t.Fatal("severed uplink dropped nothing at the ToR's end")
	}
	if n := c.spineDown[1].DownDropped; n == 0 {
		t.Fatal("the spine's mirrored end dropped nothing")
	}
	// A fabric partition is not a host failure: heartbeats ride the
	// out-of-band control network, so nothing is suspected or migrated.
	if len(c.Detections()) != 0 || len(c.Migrations()) != 0 {
		t.Fatalf("tor-link failure triggered recovery: %d detections, %d migrations",
			len(c.Detections()), len(c.Migrations()))
	}
	if v := c.Snapshot().Version; v != 1 {
		t.Fatalf("tor-link failure swapped the snapshot to v%d", v)
	}
	// After the restore the partition heals: the spine keeps forwarding.
	if c.Spine.RxFrames == 0 {
		t.Fatal("no cross-rack frames at all")
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after a link-down window: %v", err)
	}
}

// --- full-cluster recovery failure is loud ---

func TestClusterRecoveryOverCapacityFailsLoudly(t *testing.T) {
	cfg := smallConfig(43)
	cfg.Hosts = 2
	cfg.HostCap = 13
	cfg.Specs = testSpecs(2, 24) // 24 containers on 2 hosts of 13: no survivor can hold both shares
	cfg.Fabric = FabricConfig{Racks: 1}
	cfg.Recovery = &RecoveryConfig{
		Script: Script{{Kind: HostCrash, Host: 0, At: 5 * sim.Millisecond}},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(20*sim.Millisecond, 1)
	if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
		t.Fatalf("over-capacity recovery: got %v, want loud capacity error", err)
	}
}

func TestClusterRecoveryScriptValidated(t *testing.T) {
	cfg := smallConfig(47)
	cfg.Recovery = &RecoveryConfig{
		Script: Script{{Kind: HostCrash, Host: 99, At: sim.Millisecond}},
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range scripted host accepted")
	}
}

// TestClusterPlaneDrivenCrashAndTorLinkPinned pins the plane-driven
// recovery classes, which no golden reaches: with ClassHostCrash and
// ClassTorLink armed, the fault timelines' gaps and downtimes decide when
// hosts go dark (one of them twice), when a rack's uplink is severed and
// for how long. The counts, the detections and both observability
// digests were captured from a known-good build; any change to those
// timings moves them.
func TestClusterPlaneDrivenCrashAndTorLinkPinned(t *testing.T) {
	cfg := smallConfig(57)
	cfg.Host.Fault = &fault.Config{Rate: 0.3, Classes: fault.ClassHostCrash | fault.ClassTorLink}
	cfg.Recovery = &RecoveryConfig{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(40*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var crashes, torDowns uint64
	for _, n := range c.Nodes {
		crashes += n.Plane.Stats().HostCrashes
	}
	for _, p := range c.rec.torPlanes {
		torDowns += p.Stats().TorLinkDowns
	}
	if crashes != 3 || torDowns != 1 {
		t.Errorf("HostCrashes %d, TorLinkDowns %d; want 3, 1", crashes, torDowns)
	}
	wantDets := []Detection{
		{Host: 1, DownAt: 15612459, SuspectAt: 17000000},
		{Host: 2, DownAt: 23010385, SuspectAt: 24500000},
	}
	if got := c.Detections(); !reflect.DeepEqual(got, wantDets) {
		t.Errorf("detections %+v, want %+v", got, wantDets)
	}
	metrics, spans, err := obs.Digests(c.Pipes()...)
	if err != nil {
		t.Fatal(err)
	}
	if want := "4ec25d246feace0b8467840484ab09e4a471fea0fed10b01b15b3545a4c344bf"; metrics != want {
		t.Errorf("metrics digest %s, want %s", metrics, want)
	}
	if want := "11a25b693926e921f90dbde41d0763cde655f63b5604c49fb7d8d87db18ca0a2"; spans != want {
		t.Errorf("spans digest %s, want %s", spans, want)
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after plane-driven crashes and uplink failures: %v", err)
	}
}

// TestClusterAdmissionRetryBackoffPinned pins the degraded-mode
// admission retry schedule, which the failover golden never reaches (its
// buckets refuse nothing): a starved bucket after a scripted crash
// refuses frames, and each refusal is retried up to five times on
// retryBackoff's delays, the fifth at its cap. The retry count and the
// metrics digest were captured from a known-good build.
func TestClusterAdmissionRetryBackoffPinned(t *testing.T) {
	cfg := smallConfig(61)
	cfg.Admission = &Admission{Rate: 20_000, Burst: 16, HiReserve: 0.5}
	cfg.Recovery = &RecoveryConfig{
		Script:           Script{{Kind: HostCrash, Host: 1, At: 6 * sim.Millisecond}},
		RetryMax:         5,
		DegradeAdmission: true,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.RecoveryRetries(); got != 1024 {
		t.Errorf("admission retries %d, want 1024", got)
	}
	metrics, _, err := obs.Digests(c.Pipes()...)
	if err != nil {
		t.Fatal(err)
	}
	if want := "7859b3803275025726dd435c3cd69af2b145ae264ead1d24067f0ad27d49ef54"; metrics != want {
		t.Errorf("metrics digest %s, want %s", metrics, want)
	}
}

// --- failure script ---

func TestEventKindRoundTrip(t *testing.T) {
	for _, k := range []EventKind{HostCrash, TorLinkDown} {
		got, err := ParseEventKind(k.String())
		if err != nil {
			t.Fatalf("ParseEventKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseEventKind("meteor_strike"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestScriptValidate(t *testing.T) {
	ms := sim.Millisecond
	ok := Script{
		{Kind: HostCrash, Host: 3, At: 10 * ms, Until: 25 * ms},
		{Kind: TorLinkDown, Tor: 1, At: 5 * ms}, // never restores
	}
	if err := ok.Validate(8, 2); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	cases := []struct {
		name  string
		s     Script
		racks int
		want  string
	}{
		{"host out of range", Script{{Kind: HostCrash, Host: 8, At: ms}}, 2, "out of range"},
		{"negative host", Script{{Kind: HostCrash, Host: -1, At: ms}}, 2, "out of range"},
		{"tor out of range", Script{{Kind: TorLinkDown, Tor: 2, At: ms}}, 2, "out of range"},
		{"single rack", Script{{Kind: TorLinkDown, Tor: 0, At: ms}}, 1, "multi-rack"},
		{"zero time", Script{{Kind: HostCrash, Host: 0}}, 2, "must be positive"},
		{"recovery before failure", Script{{Kind: HostCrash, Host: 0, At: 2 * ms, Until: ms}}, 2, "not after"},
		{"bad kind", Script{{Kind: EventKind(9), At: ms}}, 2, "unknown event kind"},
	}
	for _, tc := range cases {
		err := tc.s.Validate(8, tc.racks)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// --- heartbeat failure detector ---

// detectorCluster builds (without running) a 4-host cluster with
// recovery armed, so a test can set heartbeats and drive controlTick by
// hand.
func detectorCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := smallConfig(53)
	cfg.Recovery = &RecoveryConfig{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.horizon = sim.Second
	return c
}

func detectedHosts(c *Cluster) []int {
	var hosts []int
	for _, d := range c.Detections() {
		hosts = append(hosts, d.Host)
	}
	return hosts
}

func TestDetectorSuspectsAfterTimeout(t *testing.T) {
	ms := sim.Millisecond
	c := detectorCluster(t)
	for _, n := range c.Nodes {
		n.lastBeat = 10 * ms
	}
	c.Nodes[2].lastBeat = 9 * ms
	c.controlTick(10 * ms)
	if got := detectedHosts(c); got != nil {
		t.Fatalf("fresh hosts suspected: %v", got)
	}
	// Host 2's beat is now 2ms old; the others are exactly at the
	// timeout (strict comparison keeps them alive).
	c.controlTick(11 * ms)
	if got := detectedHosts(c); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("detections = %v, want [2]", got)
	}
	if c.rec.alive[2] || !c.rec.alive[0] {
		t.Fatal("alive flags wrong")
	}
	// Suspicion is reported once, and is permanent even if beats resume.
	c.controlTick(11 * ms)
	for _, n := range c.Nodes {
		n.lastBeat = 12 * ms
	}
	c.controlTick(12 * ms)
	if got := detectedHosts(c); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("host 2 re-reported: %v", got)
	}
	if c.rec.alive[2] {
		t.Fatal("suspicion cleared by a late beat")
	}
}

// TestDetectorFalseSuspectBoundary pins the strict-timeout contract: a
// heartbeat exactly suspectAfter old at a control tick must NOT be
// suspected, one tick older must, and hosts are recovered in ID order.
func TestDetectorFalseSuspectBoundary(t *testing.T) {
	c := detectorCluster(t)
	beat := 5 * sim.Millisecond
	for _, n := range c.Nodes {
		n.lastBeat = beat
	}
	c.Nodes[1].lastBeat = beat - 1 // one tick staler
	c.Nodes[3].lastBeat = beat + 1 // one tick fresher

	now := beat + suspectAfter // hosts 0 and 2 exactly at the deadline
	c.controlTick(now)
	if got := detectedHosts(c); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("at the deadline: detections = %v, want [1] (hosts 0 and 2 are exactly at timeout, not past it)", got)
	}
	c.controlTick(now + 1)
	if got := detectedHosts(c); !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Fatalf("one past the deadline: detections = %v, want [1 0 2]", got)
	}
}

// --- degraded-mode admission retry ---

func TestBackoffDelay(t *testing.T) {
	want := []sim.Time{
		200 * sim.Microsecond,  // attempt 1
		400 * sim.Microsecond,  // 2
		800 * sim.Microsecond,  // 3
		1600 * sim.Microsecond, // 4
		2 * sim.Millisecond,    // 5 clamped
		2 * sim.Millisecond,    // 6 clamped
	}
	for i, w := range want {
		if got := retryDelay(i + 1); got != w {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := retryDelay(0); got != retryBase {
		t.Errorf("retryDelay(0) = %v, want base", got)
	}
}

// --- wire buffer ledger through failover ---

// TestWireBufLedgerThroughFailover drives every way an owned fabric frame
// can end other than delivery through the wire buffer equation of
// CheckInvariants: a scripted crash and restart (frames absorbed at the
// dead host's wire, requests its generators emit while it is down), a
// severed ToR uplink (queued frames flushed, arrivals dropped, both left
// to the GC), degraded-mode admission retries holding their frames across
// backoffs, and routing-epoch swaps with frames on the downlinks. The
// equation is checked at every 100 µs barrier and strictly after
// settling, and it must catch a stray Put.
func TestWireBufLedgerThroughFailover(t *testing.T) {
	cfg := smallConfig(61)
	// Long host cables keep frames on the ToR downlinks at the swaps.
	costs := *netdev.DefaultCosts()
	costs.WireLatency = 30 * sim.Microsecond
	cfg.Host.Costs = &costs
	// Slow links keep frames queued at the ToR uplink when it is severed.
	cfg.Fabric.linkGbps = 0.005
	cfg.Admission = &Admission{Rate: 60_000, Burst: 16, HiReserve: 0.5}
	cfg.Recovery = &RecoveryConfig{
		Script: Script{
			{Kind: HostCrash, Host: 1, At: 6 * sim.Millisecond, Until: 12 * sim.Millisecond},
			{Kind: TorLinkDown, Tor: 1, At: 7 * sim.Millisecond, Until: 10 * sim.Millisecond},
		},
		RetryMax:         5,
		DegradeAdmission: true,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One echo flow clear of the crashed host, sped up, flips between its host
	// and another live one at six barriers, as migrations would.
	flow := -1
	for i, f := range c.Flows {
		if f.PP != nil && f.Spec.Hi && c.Assignment[i] != 1 && f.Ingress != 1 {
			flow = i
			break
		}
	}
	c.Flows[flow].PP.Rate = 50_000
	home, away := c.Assignment[flow], (c.Assignment[flow]+2)%len(c.Nodes)
	if away == 1 {
		away = (away + 1) % len(c.Nodes)
	}
	// Scheduled before Run, this runs just ahead of the severing event at
	// the same instant, so it sees the frames the cut flushes.
	flushed := uint64(0)
	c.Tors[1].Shard.Eng.At(7*sim.Millisecond, func() { flushed = uint64(c.torUp[1].depth()) })
	swaps := 0
	checks := 0
	c.SetCheckpoint(100*sim.Microsecond, func(at sim.Time) {
		checks++
		if err := c.CheckInvariants(false); err != nil {
			t.Fatalf("at %v: %v", at, err)
		}
		if at >= 14*sim.Millisecond && at%sim.Millisecond == 0 && swaps < 6 {
			routes := c.Snapshot().cloneRoutes()
			rt := routes[SvcPort(flow)]
			rt.Host = []int{away, home}[swaps%2]
			routes[SvcPort(flow)] = rt
			if err := c.SwapSnapshot(NewSnapshot(c.Snapshot().Version+1, routes)); err != nil {
				t.Fatal(err)
			}
			swaps++
		}
	})
	if err := c.Run(20*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var lost uint64
	for _, sw := range c.switches() {
		lost += sw.lost
	}
	crashRx, crashTx := c.CrashDrops()
	terms := map[string]uint64{
		"crash-rx":          crashRx,
		"crash-tx":          crashTx,
		"uplink flushes":    flushed,
		"uplink down drops": c.torUp[1].DownDropped + c.spineDown[1].DownDropped,
		"admission retries": c.RecoveryRetries(),
		"epoch drops":       c.EpochDrops(),
		"frames left to GC": lost,
	}
	for name, n := range terms {
		if n == 0 {
			t.Errorf("the run exercised no %s", name)
		}
	}
	if err := c.Settle(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("settled: %v", err)
	}
	gets, puts, gone, held := c.bufLedger()
	if held != 0 || gets != puts+gone {
		t.Fatalf("settled ledger: %d gets, %d puts, %d left to the GC, %d held", gets, puts, gone, held)
	}
	t.Logf("%d checks, %d swaps; %d gets, %d puts, %d left to the GC; %v", checks, swaps, gets, puts, gone, terms)
	c.Nodes[0].Bufs.Put(make([]byte, 256))
	if err := c.CheckInvariants(true); err == nil || !strings.Contains(err.Error(), "wire buffer ledger broken") {
		t.Fatalf("an extra Put went unnoticed: %v", err)
	}
}
