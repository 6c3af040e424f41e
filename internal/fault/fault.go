// Package fault is the deterministic fault-injection plane: a seed-driven
// source of adversarial events — corrupted wire frames, DMA ring overruns,
// lost and spurious interrupts, link flaps, latency jitter, stalled
// consumers, softirq worker stalls — threaded through the datapath layers
// via the same optional nil-safe hook pattern as internal/obs.
//
// Every layer holds the plane as an optional pointer and calls its hooks
// unconditionally; a nil plane (or a zero fault rate) makes every hook a
// no-op, so the unfaulted datapath is bit-identical to a build without the
// plane. All fault decisions draw from the plane's own RNG stream, derived
// from the configured seed — injecting faults never perturbs the workload
// generators' random sequences, which keeps A/B comparisons across fault
// rates meaningful.
//
// The plane also hosts the hardening counterpart to the injection: a NAPI
// watchdog (the kernel dev_watchdog analogue) that periodically scans the
// registered devices for a stuck state — packets queued, no poll scheduled,
// no interrupt pending — and re-arms the device's IRQ.
package fault

import (
	"prism/internal/obs"
	"prism/internal/sim"
)

// Class selects fault classes; classes combine as a bitmask. The zero
// value of Config.Classes means ClassAll.
type Class uint32

// Fault classes, one per layer the plane reaches into.
const (
	// ClassCorrupt flips bits in wire frames before DMA; the corruption
	// must surface as decode/parse drops in internal/pkt, never panics.
	ClassCorrupt Class = 1 << iota
	// ClassRing injects DMA ring overrun bursts plus lost and spurious
	// interrupts at the NIC.
	ClassRing
	// ClassLink injects link flaps (drop windows) and per-frame latency
	// jitter on the overlay wire.
	ClassLink
	// ClassConsumer stalls application threads so socket receive buffers
	// and the veth backlog fill up.
	ClassConsumer
	// ClassSoftirq stalls the softirq worker at the start of a run
	// (ksoftirqd preempted), delaying every queued packet.
	ClassSoftirq

	// ClassAll enables every class.
	ClassAll = ClassCorrupt | ClassRing | ClassLink | ClassConsumer | ClassSoftirq
)

// Recovery fault classes: fail-stop events a cluster's recovery
// controller reacts to. They are deliberately NOT part of ClassAll — a
// configuration must select them explicitly, and they fire only when the
// matching cluster hook (OnHostCrash / OnTorLink) is installed. A plane
// without the class or the hook draws nothing from its RNG for them, so
// every pre-existing configuration's random streams — and therefore its
// golden fixtures — are bit-identical.
const (
	// ClassHostCrash fail-stops a whole host at the wire, restarting it
	// after crashDowntime.
	ClassHostCrash Class = 1 << 5
	// ClassTorLink severs the rack's ToR→spine uplink for
	// torLinkDowntime.
	ClassTorLink Class = 1 << 6
)

// Per-event fault probabilities at Rate == 1; each scales linearly with
// the configured rate.
const (
	pCorrupt      = 0.30  // per wire frame
	pFlapStart    = 0.004 // per wire frame
	pJitter       = 0.10  // per wire frame
	pOverrunStart = 0.015 // per DMA attempt
	pIRQLoss      = 0.20  // per raised interrupt
	pSoftirqStall = 0.05  // per net_rx_action run
)

// Phase is one window of a fault timeline: Classes fire at Rate from
// From until Until (Until 0 = until the run's horizon). Outside every
// phase the plane is quiescent — hooks return the no-fault answer without
// drawing from the RNG, so a windowed plane's pre-window datapath is
// bit-identical to an unfaulted one.
type Phase struct {
	From  sim.Time
	Until sim.Time
	// Rate is the window's fault intensity in [0, 1].
	Rate float64
	// Classes selects which fault classes the window enables; zero means
	// ClassAll. When windows overlap, the first phase (in Config order)
	// enabling a class wins for that class.
	Classes Class
}

// Config parameterizes the plane: its seed and what fires when. Every
// fault's size and timing is a calibrated constant (below).
type Config struct {
	// Seed drives the plane's private RNG stream (distinct from the
	// engine's even for the same value).
	Seed uint64
	// Rate is the master fault intensity in [0, 1]. Per-event classes fire
	// with probability proportional to it; timeline classes (spurious
	// IRQs, consumer stalls) fire at a frequency proportional to it. Zero
	// disables injection entirely — every hook returns the no-fault answer
	// without drawing from the RNG.
	Rate float64
	// Classes selects which fault classes fire; zero means ClassAll.
	Classes Class
	// Phases, when non-empty, replaces Rate/Classes with a windowed fault
	// timeline: each phase injects its own class set at its own rate
	// inside [From, Until). Rate and Classes above are ignored while
	// Phases is set.
	Phases []Phase
}

// Fault sizes and timings. Each timeline mean is the gap at Rate 1; a
// lower rate stretches it proportionally.
const (
	// corruptBits is how many random bits flip per corrupted frame.
	corruptBits = 3
	// overrunBurst is how many consecutive DMA attempts one ring-overrun
	// burst rejects (a slow PCIe writeback stalls the whole ring, not one
	// descriptor).
	overrunBurst = 32
	// flapDuration is how long the link stays down per flap.
	flapDuration = 150 * sim.Microsecond
	// jitterMax bounds the extra wire latency of a jittered frame.
	jitterMax = 50 * sim.Microsecond
	// spuriousEvery is the mean gap between spurious interrupts per device.
	spuriousEvery = 5 * sim.Millisecond
	// stallEvery is the mean gap between consumer stalls per thread;
	// stallDuration is how long each stall occupies the core.
	stallEvery    = 10 * sim.Millisecond
	stallDuration = 400 * sim.Microsecond
	// softirqStallDuration is the stall charged to the processing core
	// when a softirq-worker stall fires.
	softirqStallDuration = 30 * sim.Microsecond
	// crashEvery is the mean gap between ClassHostCrash events;
	// crashDowntime is how long each crash keeps the host fail-stopped.
	crashEvery    = 25 * sim.Millisecond
	crashDowntime = 8 * sim.Millisecond
	// torLinkEvery / torLinkDowntime are the ClassTorLink analogues.
	torLinkEvery    = 30 * sim.Millisecond
	torLinkDowntime = 5 * sim.Millisecond
	// watchdogInterval is the stuck-device scan period (dev_watchdog).
	watchdogInterval = 2 * sim.Millisecond
)

// Counters aggregates everything the plane injected and everything the
// watchdog repaired; the invariant checker folds the drop counters into
// its conservation equations.
type Counters struct {
	WireFrames      uint64 // frames inspected by the wire hook
	Corrupted       uint64
	LinkFlaps       uint64 // flap windows opened
	LinkDropped     uint64 // frames dropped while the link was down
	Jittered        uint64
	OverrunBursts   uint64
	OverrunDropped  uint64 // frames rejected at the DMA engine
	IRQsLost        uint64
	IRQsSpurious    uint64
	SoftirqStalls   uint64
	ConsumerStalls  uint64
	WatchdogRescues uint64
	HostCrashes     uint64
	TorLinkDowns    uint64
}

// Injected sums the faults that hit a frame, an interrupt, a core or a
// host. Flap, overrun-burst and ToR-link windows are left out: each opens
// a window whose effect is already counted per frame (LinkDropped,
// OverrunDropped) or by the fabric. WireFrames and WatchdogRescues are
// not faults.
func (c Counters) Injected() uint64 {
	return c.Corrupted + c.LinkDropped + c.Jittered + c.OverrunDropped +
		c.IRQsLost + c.IRQsSpurious + c.SoftirqStalls + c.ConsumerStalls +
		c.HostCrashes
}

// Device is the watchdog/interrupt surface a NIC exposes to the plane.
type Device interface {
	// DeviceName labels the device in fault metrics.
	DeviceName() string
	// Stuck reports packets queued with no poll scheduled and no
	// interrupt pending — the state a lost IRQ strands a device in.
	Stuck() bool
	// RearmIRQ re-raises the device's interrupt if it is stuck.
	RearmIRQ(now sim.Time)
	// SpuriousIRQ raises an interrupt with no new packets behind it.
	SpuriousIRQ(now sim.Time)
}

// Consumer is the stall surface of an application thread.
type Consumer interface {
	// Stall occupies the consumer's core for dur without completing work.
	Stall(now, dur sim.Time)
}

// Plane is one engine's fault injector. All methods are nil-safe: calling
// them on a nil *Plane is the documented no-op, which is what lets every
// layer hold the plane as an optional pointer and skip nil checks at each
// hook site.
type Plane struct {
	cfg Config
	eng *sim.Engine
	rng *sim.RNG
	obs *obs.Pipeline

	// linkDownUntil is the current flap window's end; overrunLeft counts
	// the remaining rejections of the current overrun burst.
	linkDownUntil sim.Time
	overrunLeft   int

	// scratch backs corrupted frames: the wire hook must not mutate the
	// caller's buffer (generators reuse one frame for a whole run), so a
	// corrupted frame is a copy. Valid until the next corruption; the NIC
	// DMA-copies synchronously, so one buffer suffices.
	scratch []byte

	devices   []Device
	consumers []Consumer

	// crashFn / torFn are the cluster recovery hooks timeline crash and
	// uplink events fire; nil (no cluster attached) disarms the classes
	// entirely, RNG included.
	crashFn func(at, restore sim.Time)
	torFn   func(at, restore sim.Time)

	until   sim.Time
	started bool

	Counters
}

// NewPlane builds a plane for the engine. The RNG stream is derived from
// cfg.Seed but distinct from an engine seeded with the same value.
func NewPlane(eng *sim.Engine, cfg Config) *Plane {
	if cfg.Classes == 0 {
		cfg.Classes = ClassAll
	}
	for i := range cfg.Phases {
		if cfg.Phases[i].Classes == 0 {
			cfg.Phases[i].Classes = ClassAll
		}
	}
	return &Plane{cfg: cfg, eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0xfa017fa017)}
}

// SetObs installs the observability pipeline fault metrics are exported
// through (nil disables export).
func (p *Plane) SetObs(pipe *obs.Pipeline) {
	if p == nil {
		return
	}
	p.obs = pipe
}

// Stats returns a copy of the fault counters; zero for a nil plane.
func (p *Plane) Stats() Counters {
	if p == nil {
		return Counters{}
	}
	return p.Counters
}

// Watch registers a device with the watchdog and the spurious-IRQ
// timeline.
func (p *Plane) Watch(d Device) {
	if p == nil {
		return
	}
	p.devices = append(p.devices, d)
}

// WatchConsumer registers an application thread with the stall timeline.
func (p *Plane) WatchConsumer(c Consumer) {
	if p == nil {
		return
	}
	p.consumers = append(p.consumers, c)
}

// OnHostCrash installs the hook a ClassHostCrash timeline event fires:
// fail-stop at `at`, restart at `restore`. Install before Start; without
// a hook the class never arms. Nil-safe.
func (p *Plane) OnHostCrash(fn func(at, restore sim.Time)) {
	if p == nil {
		return
	}
	p.crashFn = fn
}

// OnTorLink installs the hook a ClassTorLink timeline event fires: the
// rack uplink goes down at `at` and restores at `restore`. Install
// before Start; without a hook the class never arms. Nil-safe.
func (p *Plane) OnTorLink(fn func(at, restore sim.Time)) {
	if p == nil {
		return
	}
	p.torFn = fn
}

// injecting reports whether the plane can inject at any point of the run
// — the cheap guard per-event hooks check before touching the clock.
func (p *Plane) injecting() bool {
	if p == nil {
		return false
	}
	if len(p.cfg.Phases) == 0 {
		return p.cfg.Rate > 0
	}
	for _, ph := range p.cfg.Phases {
		if ph.Rate > 0 {
			return true
		}
	}
	return false
}

// rateFor returns class c's fault intensity at time now: the flat
// Rate/Classes configuration, or — with Phases set — the first window
// containing now that enables c. Zero means the hook must return the
// no-fault answer without drawing from the RNG.
func (p *Plane) rateFor(now sim.Time, c Class) float64 {
	if len(p.cfg.Phases) == 0 {
		if p.cfg.Classes&c == 0 {
			return 0
		}
		return p.cfg.Rate
	}
	for _, ph := range p.cfg.Phases {
		if now < ph.From || (ph.Until > 0 && now >= ph.Until) {
			continue
		}
		if ph.Classes&c == 0 {
			continue
		}
		return ph.Rate
	}
	return 0
}

// injected exports one injected-fault event through obs.
func (p *Plane) injected(class string) {
	if p.obs == nil {
		return
	}
	p.obs.M.Counter("prism_fault_injected_total", obs.Labels{Stage: class, Shard: p.obs.Shard}).Add(1)
}

// dropped exports one fault-induced frame drop with its reason.
func (p *Plane) dropped(dev, reason string) {
	if p.obs == nil {
		return
	}
	p.obs.M.Counter("prism_fault_drops_total", obs.Labels{Device: dev, Stage: reason, Shard: p.obs.Shard}).Add(1)
}

// WireRx is the overlay's receive hook, called for every frame arriving
// from the wire before DMA. It returns the frame to deliver (a plane-owned
// copy when corrupted — the caller's buffer is never mutated), whether the
// frame is lost to a link flap, and an extra latency to impose before DMA.
// A delayed frame must be copied by the caller: the returned slice is only
// valid until the hook runs again.
func (p *Plane) WireRx(now sim.Time, frame []byte) (out []byte, drop bool, delay sim.Time) {
	if !p.injecting() {
		return frame, false, 0
	}
	p.WireFrames++
	if lr := p.rateFor(now, ClassLink); lr > 0 {
		if now < p.linkDownUntil {
			p.LinkDropped++
			p.dropped("wire", "linkflap")
			return nil, true, 0
		}
		if p.rng.Float64() < pFlapStart*lr {
			p.linkDownUntil = now + flapDuration
			p.LinkFlaps++
			p.LinkDropped++
			p.injected("linkflap")
			p.dropped("wire", "linkflap")
			return nil, true, 0
		}
		if p.rng.Float64() < pJitter*lr {
			delay = sim.Time(p.rng.Uint64()%uint64(jitterMax)) + 1
			p.Jittered++
			p.injected("jitter")
		}
	}
	out = frame
	if cr := p.rateFor(now, ClassCorrupt); cr > 0 && p.rng.Float64() < pCorrupt*cr {
		out = p.corrupt(frame)
		p.Corrupted++
		p.injected("corrupt")
	}
	return out, false, delay
}

// corrupt copies frame into the plane's scratch buffer and flips
// corruptBits random bits.
func (p *Plane) corrupt(frame []byte) []byte {
	if cap(p.scratch) < len(frame) {
		p.scratch = make([]byte, len(frame))
	}
	s := p.scratch[:len(frame)]
	copy(s, frame)
	if len(s) == 0 {
		return s
	}
	for i := 0; i < corruptBits; i++ {
		bit := p.rng.Intn(len(s) * 8)
		s[bit/8] ^= 1 << (bit % 8)
	}
	return s
}

// RingOverrun is the NIC's DMA admission hook: true means the DMA engine
// rejected the frame before a descriptor was posted (no SKB exists; the
// plane accounts the drop). Overruns arrive in bursts.
func (p *Plane) RingOverrun(now sim.Time, dev string) bool {
	if p == nil {
		return false
	}
	rate := p.rateFor(now, ClassRing)
	if rate <= 0 {
		return false
	}
	if p.overrunLeft > 0 {
		p.overrunLeft--
		p.OverrunDropped++
		p.dropped(dev, "overrun")
		return true
	}
	if p.rng.Float64() < pOverrunStart*rate {
		p.OverrunBursts++
		p.overrunLeft = overrunBurst - 1
		p.OverrunDropped++
		p.injected("overrun")
		p.dropped(dev, "overrun")
		return true
	}
	return false
}

// DropIRQ is the NIC's interrupt-raise hook: true means the interrupt is
// lost on its way to the core. The packets stay in the ring until the next
// arrival re-raises — or, with no follow-up traffic, until the watchdog
// notices the stuck device.
func (p *Plane) DropIRQ(now sim.Time, dev string) bool {
	if p == nil {
		return false
	}
	rate := p.rateFor(now, ClassRing)
	if rate <= 0 {
		return false
	}
	if p.rng.Float64() < pIRQLoss*rate {
		p.IRQsLost++
		p.injected("irqloss")
		return true
	}
	return false
}

// SoftirqStall is the softirq engine's run hook: a nonzero return is extra
// CPU charged to the processing core before the poll loop starts, modeling
// ksoftirqd being preempted with the whole backlog waiting behind it.
func (p *Plane) SoftirqStall(now sim.Time) sim.Time {
	if p == nil {
		return 0
	}
	rate := p.rateFor(now, ClassSoftirq)
	if rate <= 0 {
		return 0
	}
	if p.rng.Float64() < pSoftirqStall*rate {
		p.SoftirqStalls++
		p.injected("softirqstall")
		return softirqStallDuration
	}
	return 0
}
