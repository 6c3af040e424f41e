package experiments

import (
	"fmt"
	"strings"

	"prism/internal/napi"
	"prism/internal/prio"
)

// PollTrace is a captured NAPI poll order, one observation per loop
// iteration — the simulator's equivalent of the eBPF tracing the paper
// used to produce Fig. 6's iteration tables.
type PollTrace []napi.PollObservation

// recorder returns an OnPoll hook that appends to t until it holds limit
// observations (0 = unbounded).
func (t *PollTrace) recorder(limit int) func(napi.PollObservation) {
	return func(o napi.PollObservation) {
		if limit > 0 && len(*t) >= limit {
			return
		}
		*t = append(*t, o)
	}
}

// Table renders the trace as the paper's Fig. 6 table, with the virtual
// time of each iteration alongside:
//
//	Iter.  Time(µs)  Device  Poll list
//	1      12.40     eth     [br eth]
func (t PollTrace) Table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %-9s %-8s %s\n", "Iter.", "Time(µs)", "Device", "Poll list")
	for i, o := range t {
		fmt.Fprintf(&b, "%-6d %-9.2f %-8s [%s]\n", i+1, o.Time.Micros(), o.Device, strings.Join(o.PollList, " "))
	}
	return b.String()
}

// Interleaved reports whether the trace shows cross-batch interleaving of
// a three-stage pipeline — the pattern the paper highlights: the first
// poll of last happens only after a second poll of first.
func (t PollTrace) Interleaved(first, last string) bool {
	firstPolls := 0
	for _, o := range t {
		if o.Device == first {
			firstPolls++
		}
		if o.Device == last {
			return firstPolls >= 2
		}
	}
	return false
}

// Streamlined reports whether the trace cycles strictly through the given
// stage sequence (allowing the cycle to terminate early at the end).
func (t PollTrace) Streamlined(stages ...string) bool {
	if len(stages) == 0 {
		return false
	}
	for i, o := range t {
		if o.Device != stages[i%len(stages)] {
			return false
		}
	}
	return len(t) > 0
}

// Fig6Result reproduces Fig. 6: the NAPI device processing order for a
// saturated three-stage overlay pipeline, vanilla vs PRISM. The paper's
// tables show vanilla interleaving batches (eth, br, eth, veth, br, eth)
// while PRISM streams them (eth, br, veth, eth, br, veth).
type Fig6Result struct {
	Vanilla PollTrace
	Prism   PollTrace

	// VanillaInterleaved asserts the paper's vanilla pathology; reports
	// whether the first veth poll happened only after a second eth poll.
	VanillaInterleaved bool
	// PrismStreamlined asserts PRISM's strict eth→br→veth cycling.
	PrismStreamlined bool
}

// Fig6 runs both engines against a saturated high-priority flood and
// captures the first iterations of the poll loop.
func Fig6(p Params) Fig6Result {
	const iterations = 9
	capture := func(mode prio.Mode) PollTrace {
		r := NewRig(p, mode)
		ctr := r.Host.AddContainer("srv")
		r.Host.DB.Add(prio.Rule{IP: ctr.IP, Port: PortHighPrio})
		sink := newCountingSink()
		if _, err := ctr.Bind(17, PortHighPrio, sink, 0); err != nil {
			panic(err)
		}
		var trace PollTrace
		r.Host.Rx.SetOnPoll(trace.recorder(iterations))
		// Pre-fill the ring with five batches so the eth queue stays
		// saturated across the captured window, as in the paper's trace.
		r.Eng.At(0, func() {
			for i := 0; i < 5*r.Host.Costs.BatchSize; i++ {
				r.Host.InjectFromWire(0, overlayProbeFrame(ctr, i))
			}
		})
		mustNoErr(r.Eng.Run(p.Warmup))
		return trace
	}

	res := Fig6Result{
		Vanilla: capture(prio.ModeVanilla),
		Prism:   capture(prio.ModeBatch),
	}
	res.VanillaInterleaved = res.Vanilla.Interleaved("eth0", "veth0")
	res.PrismStreamlined = res.Prism.Streamlined("eth0", "br0", "veth0")
	return res
}

// String renders the two tables side by side conceptually (sequentially).
func (r Fig6Result) String() string {
	return fmt.Sprintf("Fig. 6 — NAPI device processing order\n%s\n%s\ninterleaved(vanilla)=%v streamlined(prism)=%v\n",
		r.Vanilla.Table("(a) Vanilla"), r.Prism.Table("(b) PRISM"),
		r.VanillaInterleaved, r.PrismStreamlined)
}
