package stats

import (
	"fmt"

	"prism/internal/sim"
)

// RateCounter accumulates discrete events (packets, requests, bytes) and
// reports rates over the window between Start and the last observation.
type RateCounter struct {
	name    string
	count   uint64
	bytes   uint64
	started bool
	start   sim.Time
	last    sim.Time
}

// NewRateCounter returns a named counter.
func NewRateCounter(name string) *RateCounter {
	return &RateCounter{name: name}
}

// Start marks the beginning of the measurement window. Observations before
// Start are counted from time zero.
func (c *RateCounter) Start(now sim.Time) {
	c.started = true
	c.start = now
	c.last = now
}

// Add records n events carrying total b bytes at virtual time now. If
// Start was never called, the measurement window implicitly starts at
// the first observation's timestamp — not at time zero — so rates over a
// counter that was never explicitly started reflect the observed span,
// not the full simulation.
func (c *RateCounter) Add(now sim.Time, n int, b int) {
	if !c.started {
		c.Start(now)
	}
	c.count += uint64(n)
	c.bytes += uint64(b)
	if now > c.last {
		c.last = now
	}
}

// Count returns the number of recorded events.
func (c *RateCounter) Count() uint64 { return c.count }

// Bytes returns the total recorded bytes.
func (c *RateCounter) Bytes() uint64 { return c.bytes }

// window returns the elapsed measurement window, at least 1ns to avoid
// division by zero.
func (c *RateCounter) window(now sim.Time) sim.Time {
	w := now - c.start
	if w < 1 {
		w = 1
	}
	return w
}

// PerSecond returns events/sec over [start, now].
func (c *RateCounter) PerSecond(now sim.Time) float64 {
	return float64(c.count) / c.window(now).Seconds()
}

// Kpps returns thousands of events per second, the unit of the paper's
// throughput figures.
func (c *RateCounter) Kpps(now sim.Time) float64 {
	return c.PerSecond(now) / 1e3
}

// Gbps returns gigabits per second of recorded bytes.
func (c *RateCounter) Gbps(now sim.Time) float64 {
	return float64(c.bytes) * 8 / 1e9 / c.window(now).Seconds()
}

// String renders the counter at the last observed time.
func (c *RateCounter) String() string {
	return fmt.Sprintf("%s: %d events (%.1f kpps), %d bytes (%.2f Gbps)",
		c.name, c.count, c.Kpps(c.last), c.bytes, c.Gbps(c.last))
}
