package fault

import "prism/internal/sim"

// Timeline faults are the ones that fire on their own clock rather than
// piggybacking on a datapath event: spurious interrupts, consumer stalls,
// and the watchdog's stuck-device scan. Start schedules one self-renewing
// chain per registered device/consumer; every chain stops rescheduling
// once its next firing would land past the horizon, so RunUntilIdle after
// a run terminates instead of chasing fault events forever.

// Start arms the timeline fault chains and the watchdog up to the given
// horizon. It is idempotent per plane (the chains are armed once) and
// nil-safe. The watchdog runs even at Rate 0 if devices are registered —
// it is hardening, not injection — but a zero-rate plane schedules no
// fault events. With Phases configured, each window arms its own chains
// clamped to the window, so timeline faults respect start/stop times the
// same way the per-event hooks do.
func (p *Plane) Start(until sim.Time) {
	if p == nil || p.started {
		return
	}
	p.started = true
	p.until = until
	if len(p.cfg.Phases) > 0 {
		now := p.eng.Now()
		for _, ph := range p.cfg.Phases {
			if ph.Rate <= 0 {
				continue
			}
			from := ph.From
			if from < now {
				from = now
			}
			end := until
			if ph.Until > 0 && ph.Until < end {
				end = ph.Until
			}
			if from >= end {
				continue
			}
			p.armPhase(ph.Classes, from, end, ph.Rate)
		}
	} else if p.cfg.Rate > 0 {
		p.armPhase(p.cfg.Classes, p.eng.Now(), until, p.cfg.Rate)
	}
	if len(p.devices) > 0 {
		p.armWatchdog(p.eng.Now() + watchdogInterval)
	}
}

// armPhase arms one window's timeline chains: a spurious-IRQ chain per
// device and a stall chain per consumer, each confined to [base, end).
// The recovery classes additionally require their cluster hook — the
// class-then-hook guard order means a plane without both draws nothing
// from the RNG, keeping pre-existing configurations bit-identical.
func (p *Plane) armPhase(classes Class, base, end sim.Time, rate float64) {
	if classes&ClassRing != 0 {
		for _, d := range p.devices {
			p.armSpurious(d, base, end, rate)
		}
	}
	if classes&ClassConsumer != 0 {
		for _, c := range p.consumers {
			p.armStall(c, base, end, rate)
		}
	}
	if classes&ClassHostCrash != 0 && p.crashFn != nil {
		p.armCrash(base, end, rate)
	}
	if classes&ClassTorLink != 0 && p.torFn != nil {
		p.armTorLink(base, end, rate)
	}
}

// armSpurious schedules the next spurious interrupt for d after base,
// stopping at end. Gaps are exponential with mean spuriousEvery/rate, so
// the event frequency scales with the window's rate like the per-event
// probabilities do.
func (p *Plane) armSpurious(d Device, base, end sim.Time, rate float64) {
	gap := p.rng.ExpDuration(sim.Time(float64(spuriousEvery) / rate))
	at := base + gap + 1
	if at >= end {
		return
	}
	p.eng.At(at, func() {
		p.IRQsSpurious++
		p.injected("spuriousirq")
		d.SpuriousIRQ(at)
		p.armSpurious(d, at, end, rate)
	})
}

// armStall schedules the next consumer stall for c after base, stopping
// at end.
func (p *Plane) armStall(c Consumer, base, end sim.Time, rate float64) {
	gap := p.rng.ExpDuration(sim.Time(float64(stallEvery) / rate))
	at := base + gap + 1
	if at >= end {
		return
	}
	p.eng.At(at, func() {
		p.ConsumerStalls++
		p.injected("consumerstall")
		c.Stall(at, stallDuration)
		p.armStall(c, at, end, rate)
	})
}

// armCrash schedules the next host-crash event after base, stopping at
// end. The chain re-arms from the restart time, so one crash's downtime
// never overlaps the next.
func (p *Plane) armCrash(base, end sim.Time, rate float64) {
	gap := p.rng.ExpDuration(sim.Time(float64(crashEvery) / rate))
	at := base + gap + 1
	if at >= end {
		return
	}
	restore := at + crashDowntime
	p.eng.At(at, func() {
		p.HostCrashes++
		p.injected("hostcrash")
		p.crashFn(at, restore)
		p.armCrash(restore, end, rate)
	})
}

// armTorLink schedules the next uplink failure after base, stopping at
// end, re-arming from the restore time.
func (p *Plane) armTorLink(base, end sim.Time, rate float64) {
	gap := p.rng.ExpDuration(sim.Time(float64(torLinkEvery) / rate))
	at := base + gap + 1
	if at >= end {
		return
	}
	restore := at + torLinkDowntime
	p.eng.At(at, func() {
		p.TorLinkDowns++
		p.injected("torlinkdown")
		p.torFn(at, restore)
		p.armTorLink(restore, end, rate)
	})
}

// armWatchdog schedules the next stuck-device scan.
func (p *Plane) armWatchdog(at sim.Time) {
	if at >= p.until {
		return
	}
	p.eng.At(at, func() {
		p.rescue(at)
		p.armWatchdog(at + watchdogInterval)
	})
}

// rescue scans the registered devices and re-arms the IRQ of every stuck
// one, returning how many it rescued.
func (p *Plane) rescue(now sim.Time) int {
	n := 0
	for _, d := range p.devices {
		if !d.Stuck() {
			continue
		}
		p.WatchdogRescues++
		p.injected("watchdogrescue")
		d.RearmIRQ(now)
		n++
	}
	return n
}

// RescueStuck runs one watchdog scan immediately. The drain loop uses it
// after the horizon: a lost IRQ with no follow-up traffic strands packets
// in the ring past the last scheduled scan, and draining to idle must not
// leave them there. Nil-safe; returns the number of devices rescued.
func (p *Plane) RescueStuck(now sim.Time) int {
	if p == nil {
		return 0
	}
	return p.rescue(now)
}
