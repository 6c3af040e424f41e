package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/sim"
)

// Windows are short — a cluster window is a couple of microseconds of
// virtual time and a handful of events per shard — so a parallel run
// cannot afford to start goroutines per window. A pool lives for one
// Group.Run instead: workers-1 helper goroutines plus the coordinator,
// which is worker 0. The coordinator hands a window over by publishing
// its end and bumping an atomic generation counter; every worker then
// runs the window for its home shards and publishes its summary, and each
// helper bumps an atomic done count. Everything the coordinator wrote
// before the generation bump (the window end and parity, OnBarrier
// mutations) happens before the helpers run the window, and everything a
// helper wrote before its done bump — its shards' state and its summary —
// happens before the coordinator's reduction and OnBarrier.
//
// A waiter spins for a bounded time, yielding the processor, and then
// parks on a channel, so an idle pool — a long OnBarrier hook, or many
// groups running at once under par.ForEach — does not burn CPU.

// spinFor bounds how long a waiter spins before parking. It covers the
// coordinator's serial barrier work (the reduction and a cheap hook) with
// a wide margin, so a busy run seldom parks, while an idle waiter stops
// burning CPU within a fraction of a millisecond.
const spinFor = 50 * time.Microsecond

// parker lets one goroutine sleep until another signals it. The waker
// sets the waited-on condition first and then calls unpark; the sleeper
// announces itself in parked before its final check of the condition.
// Go's atomics are sequentially consistent, so either the sleeper sees
// the condition or the waker sees parked and sends the wake token.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

func newParker() *parker { return &parker{wake: make(chan struct{}, 1)} }

// await returns once ready reports true.
func (k *parker) await(ready func() bool) {
	if ready() {
		return
	}
	start := time.Now()
	for i := 0; ; i++ {
		if ready() {
			return
		}
		if i < 64 {
			continue
		}
		runtime.Gosched()
		if i%16 == 0 && time.Since(start) > spinFor {
			break
		}
	}
	for !ready() {
		k.parked.Store(true)
		if ready() {
			if k.parked.CompareAndSwap(true, false) {
				return
			}
			// The waker claimed the token first: consume it.
		}
		<-k.wake
	}
}

// unpark wakes k if it is parked. Call it after making k's condition true.
func (k *parker) unpark() {
	if k.parked.Load() && k.parked.CompareAndSwap(true, false) {
		k.wake <- struct{}{}
	}
}

// pool is the goroutine set of one parallel Group.Run; the per-worker
// state lives in Group.workers. The two atomics sit on separate cache
// lines: helpers spin on gen while the coordinator spins on done.
type pool struct {
	g       *Group
	helpers []*parker
	coord   *parker
	exited  sync.WaitGroup
	// end and stop are published by the coordinator before it bumps gen.
	end  sim.Time
	stop bool
	gen  atomic.Uint64
	_    cacheLinePad
	// done counts helpers finished with the current window.
	done atomic.Int64
	_    cacheLinePad
}

type cacheLinePad [64]byte

// startPool starts a helper goroutine for every worker but the first.
// Callers must close the pool before returning.
func (g *Group) startPool() *pool {
	p := &pool{g: g, coord: newParker()}
	for i := 1; i < len(g.workers); i++ {
		k := newParker()
		p.helpers = append(p.helpers, k)
		p.exited.Add(1)
		go p.help(&g.workers[i], k)
	}
	return p
}

// help is a helper goroutine's loop: wait for a new generation, run the
// window for w's home shards, report done.
func (p *pool) help(w *worker, k *parker) {
	defer p.exited.Done()
	var seen uint64
	for {
		k.await(func() bool { return p.gen.Load() != seen })
		seen = p.gen.Load()
		if p.stop {
			return
		}
		w.runWindow(p.g.par, p.end)
		if p.done.Add(1) == int64(len(p.helpers)) {
			p.coord.unpark()
		}
	}
}

// runWindow runs one window across the pool and returns once every worker
// has published its summary.
func (p *pool) runWindow(end sim.Time) {
	p.end = end
	p.done.Store(0)
	p.gen.Add(1)
	for _, k := range p.helpers {
		k.unpark()
	}
	p.g.workers[0].runWindow(p.g.par, end)
	all := int64(len(p.helpers))
	if p.done.Load() != all {
		start := time.Now()
		p.coord.await(func() bool { return p.done.Load() == all })
		p.g.barrierWait += time.Since(start)
	}
}

// close stops the helpers and waits for them to exit. Helpers only ever
// wait between windows, so close is safe on every return path of Run —
// after a halted shard's error as much as after a clean finish.
func (p *pool) close() {
	p.stop = true
	p.gen.Add(1)
	for _, k := range p.helpers {
		k.unpark()
	}
	p.exited.Wait()
}
