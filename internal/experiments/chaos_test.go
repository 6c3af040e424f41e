package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prism/internal/fault"
	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/traffic"
)

const chaosGoldenPath = "testdata/chaos_golden.json"

// chaosDetScale keeps the committed chaos fixture small: short run, two
// nonzero rates. Rate 0 stays in the ladder — that row runs with no plane
// at all, so the fixture also pins the unfaulted datapath (and the
// separate datapath_golden.json staying green proves the nil hooks cost
// nothing on every other workload).
func chaosDetParams() Params {
	return detParams()
}

var chaosDetRates = []float64{0, 0.2, 0.4}

// TestChaosGolden pins the chaos experiment bit-for-bit: the full result
// — latency summaries, counts, fault counters, and the metrics/span
// digests of every point — must match the committed fixture, and must be
// reproduced identically when the grid fans out over 2 and 4 workers.
// Regenerate with:
//
//	go test ./internal/experiments -run TestChaosGolden -update-golden
func TestChaosGolden(t *testing.T) {
	capture := func(workers int) ChaosResult {
		p := chaosDetParams()
		p.Workers = workers
		return Chaos(p, chaosDetRates)
	}
	got := capture(1)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(chaosGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(chaosGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("chaos golden fixture rewritten: %s", chaosGoldenPath)
		return
	}

	raw, err := os.ReadFile(chaosGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want ChaosResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	check := func(name string, gotR ChaosResult) {
		w, g := mustJSON(t, want), mustJSON(t, gotR)
		if string(w) != string(g) {
			t.Errorf("%s diverged from chaos golden fixture\nwant: %s\ngot:  %s", name, w, g)
		}
	}
	check("workers=1", got)
	for _, w := range []int{2, 4} {
		check("workers="+string(rune('0'+w)), capture(w))
	}
}

// TestChaosGoldenInjectsFaults guards the fixture's reach: the committed
// nonzero-rate rows must actually have injected faults (and the rate-0
// rows none), so the golden test cannot silently pin a no-op plane.
func TestChaosGoldenInjectsFaults(t *testing.T) {
	raw, err := os.ReadFile(chaosGoldenPath)
	if err != nil {
		t.Skipf("chaos golden fixture not captured yet: %v", err)
	}
	var want ChaosResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	for _, row := range want.Rows {
		injected := row.Faults.Injected()
		if row.FaultRate == 0 && injected != 0 {
			t.Errorf("%s rate 0: fixture shows %d injected faults, want 0", row.Variant.Label(), injected)
		}
		if row.FaultRate > 0 && injected == 0 {
			t.Errorf("%s rate %.2f: fixture shows no injected faults", row.Variant.Label(), row.FaultRate)
		}
		if row.HighRecv == 0 || row.BGRecv == 0 {
			t.Errorf("%s rate %.2f: fixture looks empty: %+v", row.Variant.Label(), row.FaultRate, row)
		}
	}
}

// TestChaosSeedDeterministic reruns one faulted point twice with the same
// seed and demands identical results — including the metrics and span
// stream digests, the strongest equality the run exposes.
func TestChaosSeedDeterministic(t *testing.T) {
	p := chaosDetParams()
	a := chaosPoint(p, PolicyVariant{Policy: "prism", Mode: prio.ModeSync}, 0.4)
	b := chaosPoint(p, PolicyVariant{Policy: "prism", Mode: prio.ModeSync}, 0.4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	p.Seed = 7
	c := chaosPoint(p, PolicyVariant{Policy: "prism", Mode: prio.ModeSync}, 0.4)
	if a.SpansSHA == c.SpansSHA {
		t.Fatalf("different seeds produced identical span streams (plane not seeded?)")
	}
}

// TestChaosInvariantsPerFaultClass runs the chaos workload under each
// fault class in isolation (and all together) at an aggressive rate, then
// drains and enforces the conservation/zero-leak invariants. A leak or a
// lost packet in any single fault path fails its own subtest.
func TestChaosInvariantsPerFaultClass(t *testing.T) {
	classes := []struct {
		name string
		c    fault.Class
		rate float64
	}{
		{"none", 0, 0}, // unfaulted baseline: the engines themselves leak nothing
		{"corrupt", fault.ClassCorrupt, 0.8},
		{"ring", fault.ClassRing, 0.8},
		{"link", fault.ClassLink, 0.8},
		{"consumer", fault.ClassConsumer, 0.8},
		{"softirq", fault.ClassSoftirq, 0.8},
		{"all", fault.ClassAll, 0.8},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			p := chaosDetParams()
			opts := []RigOption{WithPolicy("prism")}
			if tc.rate > 0 {
				opts = append(opts,
					WithFault(&fault.Config{Seed: p.Seed, Rate: tc.rate, Classes: tc.c}),
					WithShed())
			}
			r := NewRig(p, prio.ModeSync, opts...)

			hi := r.Host.AddContainer("hi-srv")
			pp := traffic.NewPingPong(r.Eng, r.Host, hi, clientSrc(0), PortHighPrio, p.HighRate)
			r.Host.DB.Add(prio.Rule{IP: hi.IP, Port: PortHighPrio})
			pp.Warmup = p.Warmup
			mustNoErr(pp.InstallEcho(p.EchoCost))
			pp.Start(r.Client, 0)

			bg := r.Host.AddContainer("bg-srv")
			fl := traffic.NewUDPFlood(r.Eng, r.Host, bg, clientSrc(1), PortBackgrnd, p.BGRate)
			fl.Burst = p.BGBurst
			mustNoErr(fl.InstallSink(p.SinkCost))
			fl.Start(0)

			if err := r.Run(p); err != nil {
				t.Fatalf("run: %v", err)
			}
			pp.Stop()
			fl.Stop()
			if err := r.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("invariants under %s faults: %v", tc.name, err)
			}
			if pp.Received == 0 {
				t.Fatalf("no high-priority replies survived %s faults", tc.name)
			}
		})
	}
}

// TestChaosClassifyByPort checks the port-table classifier the chaos rig
// hands the live capture selectors: a frame to a known port names its
// workload and priority, an unknown port or an unparsable frame none.
func TestChaosClassifyByPort(t *testing.T) {
	r := NewRig(Default(), prio.ModeSync)
	ctr := r.Host.AddContainer("lo-srv")
	for _, tc := range []struct {
		port   uint16
		name   string
		hi, ok bool
	}{
		{PortHighPrio, "hi-srv", true, true},
		{PortLowPrio, "lo-srv", false, true},
		{PortBackgrnd, "bg-srv", false, true},
		{9, "", false, false},
	} {
		frame := overlay.EncapToServer(clientSrc(0), ctr, tc.port, make([]byte, 16))
		name, hi, ok := chaosClassify(frame)
		if name != tc.name || hi != tc.hi || ok != tc.ok {
			t.Errorf("port %d: got (%q, %v, %v), want (%q, %v, %v)", tc.port, name, hi, ok, tc.name, tc.hi, tc.ok)
		}
	}
	if _, _, ok := chaosClassify([]byte{1, 2, 3}); ok {
		t.Error("a truncated frame was classified")
	}
}
