package experiments

import (
	"strings"
	"testing"

	"prism/internal/prio"
)

// quickParams shrinks runs so the full suite stays fast while preserving
// enough samples for the shape assertions.
func quickParams() Params { return Default().quick() }

func TestFig6ReproducesPaperTables(t *testing.T) {
	res := Fig6(quickParams())
	if !res.VanillaInterleaved {
		t.Error("vanilla order not interleaved (paper Fig. 6a)")
	}
	if !res.PrismStreamlined {
		t.Error("prism order not streamlined (paper Fig. 6b)")
	}
	wantVan := []string{"eth0", "br0", "eth0", "veth0", "br0", "eth0"}
	gotVan := devices(res.Vanilla)
	for i := range wantVan {
		if gotVan[i] != wantVan[i] {
			t.Fatalf("vanilla order = %v, want prefix %v", gotVan, wantVan)
		}
	}
	wantPr := []string{"eth0", "br0", "veth0", "eth0", "br0", "veth0"}
	gotPr := devices(res.Prism)
	for i := range wantPr {
		if gotPr[i] != wantPr[i] {
			t.Fatalf("prism order = %v, want prefix %v", gotPr, wantPr)
		}
	}
	if !strings.Contains(res.String(), "Iter.") {
		t.Error("table rendering broken")
	}
}

func TestFig3BusyWorseThanIdle(t *testing.T) {
	res := Fig3(quickParams())
	if res.MedianRatio < 1.8 {
		t.Errorf("busy/idle median = %.2f, want substantially > 1 (paper ~5x)", res.MedianRatio)
	}
	if res.P99Ratio < 3 {
		t.Errorf("busy/idle p99 = %.2f, want > 3 (paper ~5.5x)", res.P99Ratio)
	}
	if res.BusyUtil < 0.5 || res.BusyUtil > 0.95 {
		t.Errorf("busy utilization = %.2f, want the paper's busy regime", res.BusyUtil)
	}
	if len(res.IdleCDF) == 0 || len(res.BusyCDF) == 0 {
		t.Error("CDFs missing")
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig8ThroughputAnchors(t *testing.T) {
	p := quickParams()
	p.Duration = 300 * 1e6 // 300ms for stable rates
	res := Fig8(p)
	byMode := map[prio.Mode]Fig8Row{}
	for _, row := range res.Rows {
		byMode[row.Mode] = row
	}
	van := byMode[prio.ModeVanilla]
	bat := byMode[prio.ModeBatch]
	syn := byMode[prio.ModeSync]
	if van.MaxKpps < 380 || van.MaxKpps > 460 {
		t.Errorf("vanilla throughput = %.0f kpps, want ~400 (paper)", van.MaxKpps)
	}
	if bat.MaxKpps < 380 || bat.MaxKpps > 460 {
		t.Errorf("batch throughput = %.0f kpps, want ~400 (paper)", bat.MaxKpps)
	}
	if syn.MaxKpps < 260 || syn.MaxKpps > 340 {
		t.Errorf("sync throughput = %.0f kpps, want ~300 (paper)", syn.MaxKpps)
	}
	// Latency ordering: PRISM modes no worse than vanilla.
	if float64(syn.Latency.P50) > float64(van.Latency.P50) {
		t.Errorf("sync p50 %v > vanilla p50 %v", syn.Latency.P50, van.Latency.P50)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig9PriorityDifferentiation(t *testing.T) {
	res := Fig9(quickParams())
	// Kernel-side cut is the paper's headline: ~50% for sync.
	if cut := res.KernelImprovement(prio.ModeSync, MeanOf); cut < 0.35 {
		t.Errorf("sync kernel avg cut = %.0f%%, want >= 35%% (paper ~50%%)", 100*cut)
	}
	if cut := res.KernelImprovement(prio.ModeSync, P99Of); cut < 0.3 {
		t.Errorf("sync kernel p99 cut = %.0f%%, want >= 30%%", 100*cut)
	}
	// Measured (RTT/2) improvements are diluted by client constants but
	// must still be substantial.
	if cut := res.Improvement(prio.ModeSync, MeanOf); cut < 0.2 {
		t.Errorf("sync measured avg cut = %.0f%%, want >= 20%%", 100*cut)
	}
	if cut := res.Improvement(prio.ModeBatch, MeanOf); cut < 0.15 {
		t.Errorf("batch measured avg cut = %.0f%%, want >= 15%%", 100*cut)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig10HostNetworkNullResult(t *testing.T) {
	res := Fig10(quickParams())
	for _, mode := range []prio.Mode{prio.ModeBatch, prio.ModeSync} {
		cut := res.Improvement(mode, MeanOf)
		if cut > 0.10 || cut < -0.10 {
			t.Errorf("%v host-network avg cut = %.0f%%, want ~0 (stage-1 limitation)", mode, 100*cut)
		}
	}
	if !res.Host {
		t.Error("Host flag not set")
	}
}

func TestFig11Shapes(t *testing.T) {
	p := quickParams()
	res := Fig11(p, []float64{0, 100_000, 300_000})
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	var van, syn Fig11Series
	for _, s := range res.Series {
		switch s.Mode {
		case prio.ModeVanilla:
			van = s
		case prio.ModeSync:
			syn = s
		}
	}
	for i := range van.Points {
		if syn.Points[i].Avg > van.Points[i].Avg {
			t.Errorf("at %v kpps: sync avg %v > vanilla avg %v",
				van.Points[i].BGKpps, syn.Points[i].Avg, van.Points[i].Avg)
		}
	}
	// Utilization grows with load.
	if van.Points[2].Util <= van.Points[1].Util || van.Points[1].Util <= van.Points[0].Util {
		t.Errorf("utilization not increasing: %+v", van.Points)
	}
	// Paper: the C-state penalty vanishes under load — the minimum at high
	// load is below the idle-system latency.
	if van.Points[2].Min >= van.Points[0].Min {
		t.Errorf("busy min %v not below idle min %v (C-state effect missing)",
			van.Points[2].Min, van.Points[0].Min)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig12MemcachedShapes(t *testing.T) {
	p := quickParams()
	res := Fig12(p)
	vanIdle, ok1 := res.Find(prio.ModeVanilla, false)
	vanBusy, ok2 := res.Find(prio.ModeVanilla, true)
	synBusy, ok3 := res.Find(prio.ModeSync, true)
	synIdle, ok4 := res.Find(prio.ModeSync, false)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("missing rows")
	}
	// Busy vanilla collapses (paper: -80%).
	if vanBusy.KOps > vanIdle.KOps*0.5 {
		t.Errorf("vanilla busy kops %.1f vs idle %.1f: collapse missing", vanBusy.KOps, vanIdle.KOps)
	}
	// PRISM recovers throughput and latency on the busy server.
	if synBusy.KOps <= vanBusy.KOps {
		t.Errorf("sync busy kops %.1f <= vanilla busy %.1f", synBusy.KOps, vanBusy.KOps)
	}
	if synBusy.Latency.Mean >= vanBusy.Latency.Mean {
		t.Errorf("sync busy avg %v >= vanilla busy avg %v", synBusy.Latency.Mean, vanBusy.Latency.Mean)
	}
	// Idle: no significant difference between modes (paper).
	ratio := synIdle.KOps / vanIdle.KOps
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("idle kops ratio sync/vanilla = %.2f, want ~1", ratio)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig13WebShapes(t *testing.T) {
	p := quickParams()
	res := Fig13(p)
	vanBusy, _ := res.Find(prio.ModeVanilla, true)
	batBusy, _ := res.Find(prio.ModeBatch, true)
	synBusy, _ := res.Find(prio.ModeSync, true)
	if batBusy.Latency.Mean >= vanBusy.Latency.Mean {
		t.Errorf("batch busy avg %v >= vanilla %v", batBusy.Latency.Mean, vanBusy.Latency.Mean)
	}
	if synBusy.Latency.Mean >= vanBusy.Latency.Mean {
		t.Errorf("sync busy avg %v >= vanilla %v", synBusy.Latency.Mean, vanBusy.Latency.Mean)
	}
	// All modes sustain the offered request rate at this calibration.
	for _, row := range res.Rows {
		if row.KReqs < 1.5 {
			t.Errorf("%v busy=%v kreq/s = %.2f, want ~2 (offered)", row.Mode, row.Busy, row.KReqs)
		}
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestRigDeterminism(t *testing.T) {
	p := quickParams()
	a, _, _ := latencyUnderLoad(p, prio.ModeBatch, p.BGRate, true)
	b, _, _ := latencyUnderLoad(p, prio.ModeBatch, p.BGRate, true)
	if a.Count() != b.Count() || a.Mean() != b.Mean() || a.Quantile(0.99) != b.Quantile(0.99) {
		t.Errorf("same seed produced different results: %v vs %v", a.Summarize(), b.Summarize())
	}
	p2 := p
	p2.Seed = 99
	c, _, _ := latencyUnderLoad(p2, prio.ModeBatch, p.BGRate, true)
	if a.Mean() == c.Mean() && a.Quantile(0.99) == c.Quantile(0.99) && a.Max() == c.Max() {
		t.Error("different seeds produced identical distributions")
	}
}

func TestExtDriverRemovesStage1Limitation(t *testing.T) {
	res := ExtDriver(quickParams())
	// Driver-level priority must beat software-only PRISM on the overlay…
	if res.OverlayDriver.Mean >= res.OverlayStock.Mean {
		t.Errorf("driver rings mean %v >= stock %v", res.OverlayDriver.Mean, res.OverlayStock.Mean)
	}
	// …and turn the host-network null result positive.
	hostCut := cut(res.HostVanilla, res.HostDriver, MeanOf)
	if hostCut < 0.1 {
		t.Errorf("host-network cut with driver rings = %.0f%%, want > 10%%", 100*hostCut)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestAblationBatchTradeoff(t *testing.T) {
	p := quickParams()
	res := AblationBatch(p, []int{8, 64, 128})
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Throughput grows with batch size (per-poll overheads amortize).
	if !(res.Points[0].MaxKpps < res.Points[1].MaxKpps) {
		t.Errorf("throughput not increasing with batch: %+v", res.Points)
	}
	// At equal relative load, both extremes lose to the default on
	// latency (the tradeoff that motivates the paper).
	mid := res.Points[1].BusyMean
	if res.Points[0].BusyMean <= mid && res.Points[2].BusyMean <= mid {
		t.Errorf("no latency tradeoff visible: %+v", res.Points)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestScalingRSS(t *testing.T) {
	p := quickParams()
	res := Scaling(p, []int{1, 4})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	one, four := res.Points[0], res.Points[1]
	// Aggregate throughput scales with queues.
	if four.AggKpps < one.AggKpps*2 {
		t.Errorf("4-queue agg %.0f < 2x 1-queue %.0f", four.AggKpps, one.AggKpps)
	}
	// A colliding flow gets no help from extra queues; PRISM still cuts it.
	for _, pt := range res.Points {
		if pt.HighBusyMeanPrism >= pt.HighBusyMean {
			t.Errorf("queues=%d: sync %v >= vanilla %v on the colliding queue",
				pt.Queues, pt.HighBusyMeanPrism, pt.HighBusyMean)
		}
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}
