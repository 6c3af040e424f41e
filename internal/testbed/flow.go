package testbed

import (
	"fmt"

	"prism/internal/overlay"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/stats"
	"prism/internal/traffic"
)

// FlowKind selects a Flow's traffic source.
type FlowKind int

const (
	// Echo is a sockperf-style ping-pong latency flow into an echo server.
	Echo FlowKind = iota
	// Flood is open-loop UDP background traffic into a counting sink.
	Flood
	// TCP is a bulk TCP stream (an elephant flow) into a counting sink.
	TCP
)

// Flow declares one traffic source as data. It is the one recipe the
// figure drivers and the scenario runner wire their workloads through:
// the paper's evaluation is a prioritized echo against background floods
// on one server, varied only in these fields.
type Flow struct {
	Kind FlowKind
	// Container names the server container Start creates for the flow;
	// "" targets the host network instead.
	Container string
	// Hi adds a (container IP, Port) rule to the priority database; on
	// the host network the rule matches Port alone.
	Hi   bool
	Port uint16
	// Client is the index of the client container the flow sends from;
	// a flood's further senders take the indices after it.
	Client int
	// Rate is packets per second for echo and flood (split evenly over a
	// flood's senders) and messages per second for tcp.
	Rate float64

	// Flood shaping. Senders fans the flood out over that many
	// synchronized sources (0 means 1). Burst and PayloadLen override
	// the generator's defaults when positive, Poisson and JitterFrac when
	// non-nil.
	Senders    int
	Burst      int
	PayloadLen int
	Poisson    *bool
	JitterFrac *float64
	// MsgSize overrides a tcp stream's message size when positive.
	MsgSize int

	// Phases scale the rate over time; StopAt, when positive, ends
	// emission early.
	Phases []RatePhase
	StopAt sim.Time
}

// RatePhase multiplies a flow's base rate by RateX from time At onward.
type RatePhase struct {
	At    sim.Time
	RateX float64
}

// Source is one started Flow's generators.
type Source struct {
	// Rule is the priority rule that marks the flow high priority: its
	// container's IP and its port (the port alone on the host network).
	// Start adds it when the flow is Hi.
	Rule prio.Rule
	// PP is an echo flow's ping-pong.
	PP *traffic.PingPong
	// Floods are a flood's senders; Floods[0] owns the shared sink.
	Floods []*traffic.UDPFlood
	// TCP is a tcp flow's stream.
	TCP *traffic.TCPStream
}

// Delivered is a flood's or tcp stream's sink counter, counting from the
// end of warmup; nil for an echo.
func (s *Source) Delivered() *stats.RateCounter {
	switch {
	case s.TCP != nil:
		return s.TCP.Delivered
	case len(s.Floods) > 0:
		return s.Floods[0].Delivered
	}
	return nil
}

func (s *Source) stop() {
	if s.PP != nil {
		s.PP.Stop()
	}
	for _, f := range s.Floods {
		f.Stop()
	}
	if s.TCP != nil {
		s.TCP.Stop()
	}
}

// Start wires flows onto the testbed in order and starts them at time
// zero. Each flow gets its container (or the host network), its priority
// rule and its generators: echo servers charge echoCost per request and
// discard samples before warmup; sinks charge sinkCost per message and
// count from warmup on. Settle stops every flow Start wired.
func (t *Testbed) Start(warmup, echoCost, sinkCost sim.Time, flows ...Flow) ([]*Source, error) {
	srcs := make([]*Source, len(flows))
	for i, f := range flows {
		src, err := t.start(warmup, echoCost, sinkCost, f)
		if err != nil {
			return nil, fmt.Errorf("flow %d (%s): %w", i, f.Container, err)
		}
		srcs[i] = src
	}
	t.sources = append(t.sources, srcs...)
	return srcs, nil
}

func (t *Testbed) start(warmup, echoCost, sinkCost sim.Time, f Flow) (*Source, error) {
	eng, host := t.Eng, t.Host
	var ctr *overlay.Container
	var ip pkt.IPv4
	if f.Container != "" {
		ctr = host.AddContainer(f.Container)
		ip = ctr.IP
	}
	src := &Source{Rule: prio.Rule{IP: ip, Port: f.Port}}
	if f.Hi {
		host.DB.Add(src.Rule)
	}
	client := func(k int) overlay.RemoteEndpoint {
		return overlay.ClientContainer(f.Client+k, uint16(40000+f.Client+k))
	}
	switch f.Kind {
	case Echo:
		pp := traffic.NewPingPong(eng, host, ctr, client(0), f.Port, f.Rate)
		pp.Warmup = warmup
		if err := pp.InstallEcho(echoCost); err != nil {
			return nil, err
		}
		pp.Start(t.Client, 0)
		t.shape(f, f.Rate, func(r float64) { pp.Rate = r }, pp.Stop)
		src.PP = pp
	case Flood:
		senders := max(f.Senders, 1)
		perSender := f.Rate / float64(senders)
		for k := 0; k < senders; k++ {
			fl := traffic.NewUDPFlood(eng, host, ctr, client(k), f.Port, perSender)
			if f.Burst > 0 {
				fl.Burst = f.Burst
			}
			if f.Poisson != nil {
				fl.Poisson = *f.Poisson
			}
			if f.JitterFrac != nil {
				fl.JitterFrac = *f.JitterFrac
			}
			if f.PayloadLen > 0 {
				fl.PayloadLen = f.PayloadLen
			}
			if k == 0 {
				// One shared sink: the first sender's counter tallies
				// every delivery to the port, whoever sent it.
				if err := fl.InstallSink(sinkCost); err != nil {
					return nil, err
				}
				t.countFrom(warmup, fl.Delivered)
			}
			fl.Start(0)
			t.shape(f, perSender, func(r float64) { fl.Rate = r }, fl.Stop)
			src.Floods = append(src.Floods, fl)
		}
	case TCP:
		ts := traffic.NewTCPStream(eng, host, ctr, client(0), f.Port, f.Rate)
		if f.MsgSize > 0 {
			ts.MsgSize = f.MsgSize
		}
		if err := ts.InstallSink(sinkCost); err != nil {
			return nil, err
		}
		t.countFrom(warmup, ts.Delivered)
		ts.Start(0)
		t.shape(f, f.Rate, func(r float64) { ts.MsgRate = r }, ts.Stop)
		src.TCP = ts
	}
	return src, nil
}

// countFrom starts a sink counter's measured interval at warmup.
func (t *Testbed) countFrom(warmup sim.Time, c *stats.RateCounter) {
	t.Eng.At(warmup, func() { c.Start(warmup) })
}

// shape arms a generator's rate phases (set(base × RateX) at each At) and
// its early stop. The mutations run on the testbed's own engine, so they
// are deterministic.
func (t *Testbed) shape(f Flow, base float64, set func(rate float64), stop func()) {
	for _, ph := range f.Phases {
		x := ph.RateX
		t.Eng.At(ph.At, func() { set(base * x) })
	}
	if f.StopAt > 0 {
		t.Eng.At(f.StopAt, stop)
	}
}

// Settle ends a run: it stops every flow Start wired, drains the engine
// to idle (see Drain), then checks packet conservation and pool balance
// in the strict zero-leak form.
func (t *Testbed) Settle() error {
	for _, s := range t.sources {
		s.stop()
	}
	if err := t.Drain(); err != nil {
		return err
	}
	return t.CheckInvariants()
}
