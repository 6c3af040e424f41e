package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference implementation: the engine contract on top of container/heap,
// exactly the queue the wheel replaced. The differential tests drive the
// reference and the real engine with the same randomized programs and demand
// identical dispatch order, Executed counts and Pending values.
// ---------------------------------------------------------------------------

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now      Time
	q        refHeap
	seq      uint64
	npend    int
	halted   bool
	executed uint64
}

func (e *refEngine) Now() Time    { return e.now }
func (e *refEngine) Pending() int { return e.npend }
func (e *refEngine) Halt()        { e.halted = true }

func (e *refEngine) At(t Time, fn func()) *refEvent {
	if t < e.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", t, e.now))
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.npend++
	heap.Push(&e.q, ev)
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	ev.fn = nil
	e.npend--
}

func (e *refEngine) peek() *refEvent {
	for len(e.q) > 0 {
		if e.q[0].dead {
			heap.Pop(&e.q)
			continue
		}
		return e.q[0]
	}
	return nil
}

func (e *refEngine) NextAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

func (e *refEngine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	heap.Pop(&e.q)
	e.now = ev.at
	e.npend--
	e.executed++
	ev.dead = true
	ev.fn()
	return true
}

func (e *refEngine) Run(horizon Time) error {
	e.halted = false
	for !e.halted {
		ev := e.peek()
		if ev == nil || ev.at > horizon {
			break
		}
		e.Step()
	}
	if e.halted {
		return ErrHalted
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

func (e *refEngine) RunUntil(t Time) error {
	e.halted = false
	for !e.halted {
		ev := e.peek()
		if ev == nil || ev.at >= t {
			break
		}
		e.Step()
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

func (e *refEngine) RunUntilIdle() error {
	e.halted = false
	for !e.halted && e.Step() {
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

// ---------------------------------------------------------------------------
// The differential driver. A program is interpreted twice through this
// queue-agnostic facade; any divergence in dispatch order, clocks, Executed,
// Pending or NextAt is a wheel bug (or a contract change).
// ---------------------------------------------------------------------------

type queueUnderTest struct {
	now         func() Time
	at          func(t Time, fn func()) any
	cancel      func(h any)
	step        func() bool
	run         func(h Time) error
	runUntil    func(t Time) error
	runUntilIdl func() error
	nextAt      func() (Time, bool)
	pending     func() int
	halt        func()
	executed    func() uint64
}

func wheelQUT(e *Engine) *queueUnderTest {
	return &queueUnderTest{
		now:         e.Now,
		at:          func(t Time, fn func()) any { return e.At(t, fn) },
		cancel:      func(h any) { e.Cancel(h.(*Event)) },
		step:        e.Step,
		run:         e.Run,
		runUntil:    e.RunUntil,
		runUntilIdl: e.RunUntilIdle,
		nextAt:      e.NextAt,
		pending:     e.Pending,
		halt:        e.Halt,
		executed:    func() uint64 { return e.Executed },
	}
}

func refQUT(e *refEngine) *queueUnderTest {
	return &queueUnderTest{
		now:         e.Now,
		at:          func(t Time, fn func()) any { return e.At(t, fn) },
		cancel:      func(h any) { e.Cancel(h.(*refEvent)) },
		step:        e.Step,
		run:         e.Run,
		runUntil:    e.RunUntil,
		runUntilIdl: e.RunUntilIdle,
		nextAt:      e.NextAt,
		pending:     e.Pending,
		halt:        e.Halt,
		executed:    func() uint64 { return e.executed },
	}
}

// splitmix64 gives every event id an independent deterministic stream, so
// callback behaviour depends only on the id, never on host state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// delayFor draws a delay for event id across every wheel regime: same-slot,
// near wheel, each coarse level, and past the overflow span. The regimes
// follow the wheel geometry, so resizing a level keeps every one reached.
func delayFor(id uint64, bucket int) Time {
	h := splitmix64(id*6364136223846793005 + uint64(bucket))
	switch bucket % 6 {
	case 0:
		return Time(h % 16) // same/adjacent near slot, many ties
	case 1:
		return Time(h % nearSlots) // near wheel
	case 2:
		return Time(h % (1 << (nearBits + coarseBits))) // coarse level 0/1
	case 3:
		return Time(h % (1 << (nearBits + 2*coarseBits + 1))) // coarse level 2
	case 4:
		return Time(h % (1 << (wheelSpan - 6))) // deep coarse levels
	default:
		return Time(1<<wheelSpan + h%(1<<(wheelSpan+2))) // overflow list
	}
}

// runProgram interprets the seeded op program against q, returning the
// dispatch log. Event callbacks append their id, sometimes re-arm children
// and sometimes cancel the oldest live handle — all decided by id-derived
// hashes, so both interpretations make identical choices as long as their
// dispatch orders match (which is exactly what the test asserts).
func runProgram(t *testing.T, seed int64, q *queueUnderTest) (log []uint64, executed uint64, pending int) {
	rng := rand.New(rand.NewSource(seed))
	var nextID uint64
	handles := make(map[uint64]any)
	order := make([]uint64, 0, 64) // live ids, oldest first

	dropHandle := func(id uint64) {
		delete(handles, id)
		for i, v := range order {
			if v == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}

	var schedule func(at Time, id uint64)
	fire := func(id uint64) func() {
		return func() {
			log = append(log, id)
			dropHandle(id)
			h := splitmix64(id)
			if h%4 == 0 { // re-arm a child
				cid := nextID
				nextID++
				schedule(q.now()+delayFor(cid, int(h>>8)), cid)
			}
			if h%5 == 0 && len(order) > 0 { // cancel the oldest live event
				victim := order[0]
				q.cancel(handles[victim])
				dropHandle(victim)
			}
			if h%97 == 0 {
				q.halt()
			}
		}
	}
	schedule = func(at Time, id uint64) {
		handles[id] = q.at(at, fire(id))
		order = append(order, id)
	}

	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule
			id := nextID
			nextID++
			schedule(q.now()+delayFor(id, rng.Intn(1000)), id)
		case 4: // cancel a random live handle
			if len(order) > 0 {
				victim := order[rng.Intn(len(order))]
				q.cancel(handles[victim])
				dropHandle(victim)
			}
		case 5, 6: // step
			q.step()
		case 7: // bounded run (ignore ErrHalted; state is still compared)
			_ = q.run(q.now() + Time(rng.Int63n(1<<22)))
		case 8: // window run
			_ = q.runUntil(q.now() + Time(rng.Int63n(1<<14)))
		case 9: // observe
			at, ok := q.nextAt()
			log = append(log, ^uint64(0)) // marker
			if ok {
				log = append(log, uint64(at))
			}
			log = append(log, uint64(q.pending()))
		}
	}
	// Drain everything, overflow cascades included.
	for q.step() {
	}
	return log, q.executed(), q.pending()
}

// TestWheelMatchesHeapReference is the differential property test: the
// timing wheel and the container/heap reference must produce identical
// dispatch logs, Executed counts and Pending values for randomized
// schedule/cancel/re-arm/Halt programs spanning every wheel level.
func TestWheelMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wl, we, wp := runProgram(t, seed, wheelQUT(NewEngine(uint64(seed))))
			rl, re, rp := runProgram(t, seed, refQUT(&refEngine{}))
			if len(wl) != len(rl) {
				t.Fatalf("dispatch log lengths differ: wheel %d, heap %d", len(wl), len(rl))
			}
			for i := range wl {
				if wl[i] != rl[i] {
					t.Fatalf("dispatch logs diverge at %d: wheel %d, heap %d", i, wl[i], rl[i])
				}
			}
			if we != re {
				t.Fatalf("Executed differs: wheel %d, heap %d", we, re)
			}
			if wp != rp || wp != 0 {
				t.Fatalf("Pending after drain: wheel %d, heap %d (want 0)", wp, rp)
			}
		})
	}
}

// fuzzWidths are the delay widths a fuzz input picks from: ties within
// a few slots, the near wheel, each coarse level's span and past the
// overflow edge.
var fuzzWidths = [...]uint{
	4, nearBits,
	nearBits + coarseBits, nearBits + 2*coarseBits, nearBits + 3*coarseBits,
	nearBits + 4*coarseBits, wheelSpan, wheelSpan + 2,
}

// FuzzWheelMatchesHeap interprets fuzz bytes as a program of schedules,
// cancels, Batch.CallAt runs, steps, Run/RunUntil windows and peeks, and
// applies each op to the wheel engine and the container/heap reference in
// lockstep. After every op the dispatch logs, clocks, Executed, Pending
// and NextAt must agree.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0xff, 0, 0, 0, 0, 0, 0, 0, 4, 4, 6})
	f.Add([]byte{3, 5, 1, 0x40, 0x81, 2, 0x03, 0x10, 0, 9, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 5, 2, 0xff, 7, 6})
	f.Add([]byte{0, 7, 0x80, 1, 2, 3, 4, 5, 6, 7, 1, 6, 9, 9, 9, 9, 9, 9, 9, 9, 2, 0, 7, 5, 0, 0, 0, 0, 0, 0, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// delay reads a width selector and eight value bytes and keeps
		// the value's low bits of that width.
		delay := func() Time {
			w := fuzzWidths[int(next())%len(fuzzWidths)]
			var v uint64
			for i := 0; i < 8; i++ {
				v = v<<8 | uint64(next())
			}
			return Time(v & (1<<w - 1))
		}

		w, r := NewEngine(1), &refEngine{}
		var wlog, rlog []uint64
		wh := map[uint64]*Event{}
		rh := map[uint64]*refEvent{}
		var live []uint64 // scheduled ids not yet seen firing or cancelled
		seen := 0         // wlog entries already dropped from live
		var nextID uint64
		// Every eleventh id halts the run it fires in.
		wfire := func(_ Time, a1, _ any) {
			id := a1.(uint64)
			wlog = append(wlog, id)
			if id%11 == 10 {
				w.Halt()
			}
		}
		rfire := func(id uint64) func() {
			return func() {
				rlog = append(rlog, id)
				if id%11 == 10 {
					r.Halt()
				}
			}
		}
		schedule := func(at Time) {
			id := nextID
			nextID++
			wh[id] = w.CallAt(at, wfire, id, nil)
			rh[id] = r.At(at, rfire(id))
			live = append(live, id)
		}
		check := func(op int) {
			t.Helper()
			if len(wlog) != len(rlog) {
				t.Fatalf("op %d: wheel dispatched %d events, heap %d", op, len(wlog), len(rlog))
			}
			for i := range wlog {
				if wlog[i] != rlog[i] {
					t.Fatalf("op %d: dispatch logs diverge at %d: wheel %d, heap %d", op, i, wlog[i], rlog[i])
				}
			}
			if w.Now() != r.Now() || w.Executed != r.executed || w.Pending() != r.Pending() {
				t.Fatalf("op %d: now/executed/pending wheel %v/%d/%d, heap %v/%d/%d", op,
					w.Now(), w.Executed, w.Pending(), r.Now(), r.executed, r.Pending())
			}
			if fired := wlog[seen:]; len(fired) > 0 {
				live = slices.DeleteFunc(live, func(id uint64) bool { return slices.Contains(fired, id) })
				seen = len(wlog)
			}
		}

		for op := 0; len(data) > 0 && op < 256; op++ {
			switch next() % 8 {
			case 0, 1: // schedule
				schedule(w.Now() + delay())
			case 2: // cancel a live event
				if len(live) > 0 {
					k := int(next()) % len(live)
					id := live[k]
					w.Cancel(wh[id])
					r.Cancel(rh[id])
					live = append(live[:k], live[k+1:]...)
				}
			case 3: // a batch of nondecreasing times, some with regular schedules interleaved
				b := w.BeginBatch()
				at := w.Now() + delay()
				for n := int(next()%8) + 1; n > 0; n-- {
					c := next()
					at += Time(c & 0x3f)
					id := nextID
					nextID++
					wh[id] = b.CallAt(at, wfire, id, nil)
					rh[id] = r.At(at, rfire(id))
					live = append(live, id)
					if c&0x80 != 0 {
						schedule(at)
					}
				}
			case 4: // step
				if w.Step() != r.Step() {
					t.Fatalf("op %d: Step results differ", op)
				}
			case 5: // window run
				until := w.Now() + delay()
				if (w.RunUntil(until) == nil) != (r.RunUntil(until) == nil) {
					t.Fatalf("op %d: RunUntil results differ", op)
				}
			case 6: // peek
				wa, wok := w.NextAt()
				ra, rok := r.NextAt()
				if wa != ra || wok != rok {
					t.Fatalf("op %d: NextAt wheel %v,%v heap %v,%v", op, wa, wok, ra, rok)
				}
			case 7: // bounded run
				horizon := w.Now() + delay()
				if (w.Run(horizon) == nil) != (r.Run(horizon) == nil) {
					t.Fatalf("op %d: Run results differ", op)
				}
			}
			check(op)
		}
		for w.Step() {
		}
		for r.Step() {
		}
		check(-1)
		if w.Pending() != 0 {
			t.Fatalf("Pending after drain = %d", w.Pending())
		}
	})
}

// ---------------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------------

// TestWheelFarFutureOverflowCascade schedules events beyond the wheels'
// span, interleaved with near events, and checks the overflow list cascades
// back through every level in (At, seq) order.
func TestWheelFarFutureOverflowCascade(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	far := Time(1) << (wheelSpan + 2) // beyond wheelSpan from cur=0
	e.At(far+5, rec(3))
	e.At(2, rec(0))
	e.At(far+5, rec(4)) // FIFO tie with id 3 across an overflow cascade
	e.At(far, rec(2))
	e.At(nearSlots-1, rec(1)) // the near wheel's last slot

	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
	if e.now != far+5 {
		t.Fatalf("clock = %v, want %v", e.now, far+5)
	}
}

// TestWheelOverflowRecascade forces an overflow cascade whose survivors are
// still beyond the wheel span and must re-enter the overflow list.
func TestWheelOverflowRecascade(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(1<<55, func() { got = append(got, 0) })
	e.At(1<<55+1<<54, func() { got = append(got, 1) }) // > span even from 1<<55
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("dispatch order = %v, want [0 1]", got)
	}
}

// TestWheelLevelBoundaries exercises delays at powers of two — every
// fourth one and every level edge of the wheel geometry — one below and
// one above, from a non-zero clock position.
func TestWheelLevelBoundaries(t *testing.T) {
	e := NewEngine(1)
	e.At(12345, func() {})
	e.Step() // now = 12345, off slot-zero alignment

	base := e.Now()
	var shifts []uint
	for shift := uint(0); shift <= wheelSpan; shift += 4 {
		shifts = append(shifts, shift)
	}
	for shift := uint(nearBits); shift <= wheelSpan; shift += coarseBits {
		shifts = append(shifts, shift) // the near wheel's and each coarse level's span
	}
	var deltas []Time
	for _, shift := range shifts {
		w := Time(1) << shift
		deltas = append(deltas, w-1, w, w+1)
	}
	type item struct {
		at  Time
		seq int
	}
	var want []item
	for i, d := range deltas {
		want = append(want, item{base + d, i})
	}
	var got []item
	for i, d := range deltas {
		i, at := i, base+d
		e.At(at, func() { got = append(got, item{at, i}) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Expected order: by (At, insertion seq).
	for i := 0; i < len(want); i++ {
		min := i
		for j := i + 1; j < len(want); j++ {
			if want[j].at < want[min].at || (want[j].at == want[min].at && want[j].seq < want[min].seq) {
				min = j
			}
		}
		want[i], want[min] = want[min], want[i]
	}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWheelInjectEarlierAfterPeek reproduces the conservative-window
// pattern: RunUntil peeks past the window edge (the next pending event is
// far in the future), then the barrier injects a message earlier than that
// pending minimum. The wheel reference must not have advanced past the
// injection time.
func TestWheelInjectEarlierAfterPeek(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(1<<30, func() { got = append(got, "far") })
	if err := e.RunUntil(1000); err != nil { // dispatches nothing, peeks the far event
		t.Fatal(err)
	}
	if at, ok := e.NextAt(); !ok || at != 1<<30 {
		t.Fatalf("NextAt = %v,%v", at, ok)
	}
	e.At(2000, func() { got = append(got, "injected") }) // earlier than the peeked min
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[injected far]" {
		t.Fatalf("dispatch order = %v, want [injected far]", got)
	}
}

// TestWheelReanchorAfterDrain drains the queue after a far-future cascade
// (the wheel reference has jumped ahead of a fresh schedule's natural slot)
// and checks new events still dispatch in order.
func TestWheelReanchorAfterDrain(t *testing.T) {
	e := NewEngine(1)
	e.At(1<<40, func() {})
	if !e.Step() {
		t.Fatal("step failed")
	}
	if e.Step() {
		t.Fatal("queue should be empty") // drained: takeNext re-anchors cur
	}
	var got []int
	e.At(e.Now()+3, func() { got = append(got, 1) })
	e.At(e.Now()+1, func() { got = append(got, 0) })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("dispatch order = %v, want [0 1]", got)
	}
}

// TestWheelCancelInterleaving cancels events in every structural position:
// slot head, slot tail, sole occupant, coarse level, overflow list.
func TestWheelCancelInterleaving(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	h1 := e.At(10, rec(-1)) // head of a shared slot
	e.At(10, rec(0))
	e.At(10, rec(1))
	h2 := e.At(20, rec(-1)) // sole occupant
	e.At(30, rec(2))
	h3 := e.At(1<<20, rec(-1)) // coarse level
	e.At(1<<20+1, rec(3))
	h4 := e.At(1<<60, rec(-1)) // overflow
	e.At(1<<60, rec(4))

	for _, h := range []*Event{h1, h2, h3, h4} {
		e.Cancel(h)
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("dispatch order = %v, want [0 1 2 3 4]", got)
	}
	if e.Pending() != 0 || e.Executed != 5 {
		t.Fatalf("Pending=%d Executed=%d, want 0/5", e.Pending(), e.Executed)
	}
}

// TestBatchCallAtOrdering checks batch-scheduled events keep global FIFO
// order against interleaved regular schedules, across slot and level
// boundaries.
func TestBatchCallAtOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(_ Time, a1, _ any) { got = append(got, a1.(int)) }

	e.CallAt(100, rec, 0, nil)
	b := e.BeginBatch()
	b.CallAt(100, rec, 1, nil)   // same slot as the regular schedule
	b.CallAt(100, rec, 2, nil)   // cached-tail fast path
	b.CallAt(150, rec, 3, nil)   // new slot
	b.CallAt(1<<20, rec, 5, nil) // coarse level
	b.CallAt(1<<60, rec, 6, nil) // overflow
	e.CallAt(200, rec, 4, nil)   // interleaved regular schedule

	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5 6]" {
		t.Fatalf("dispatch order = %v, want [0 1 2 3 4 5 6]", got)
	}
}

// TestBatchCallAtPanics checks the cursor's contract violations panic.
func TestBatchCallAtPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	e.At(50, func() {})
	e.Run(50)
	rec := func(_ Time, _, _ any) {}
	mustPanic("past schedule", func() {
		b := e.BeginBatch()
		b.CallAt(e.Now()-1, rec, nil, nil)
	})
	mustPanic("decreasing times", func() {
		b := e.BeginBatch()
		b.CallAt(e.Now()+100, rec, nil, nil)
		b.CallAt(e.Now()+99, rec, nil, nil)
	})
}

// TestPendingCounterLive checks Pending across schedule, cancel,
// double-cancel, dispatch and drain.
func TestPendingCounterLive(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() != 0 {
		t.Fatal("fresh engine should have 0 pending")
	}
	h1 := e.At(10, func() {})
	h2 := e.At(20, func() {})
	e.At(1<<55, func() {}) // overflow resident
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Cancel(h1)
	e.Cancel(h1) // double-cancel is a no-op
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(h2) // already fired: no-op
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}
