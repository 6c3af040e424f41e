package sim

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestClockUnits(t *testing.T) {
	tests := []struct {
		name string
		t    Time
		us   float64
	}{
		{"zero", 0, 0},
		{"one microsecond", Microsecond, 1},
		{"half microsecond", 500 * Nanosecond, 0.5},
		{"one second", Second, 1e6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.t.Micros(); got != tt.us {
				t.Errorf("Micros() = %v, want %v", got, tt.us)
			}
		})
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := 1500 * time.Microsecond
	if got := Duration(d).Std(); got != d {
		t.Errorf("round trip = %v, want %v", got, d)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{42 * Microsecond, "42.0µs"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.000s"},
		{30 * Second, "30.000s"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.t), got, tt.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: got %d", i, v)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	e.At(10, func() { ran = append(ran, 10) })
	e.At(50, func() { ran = append(ran, 50) })
	e.At(100, func() { ran = append(ran, 100) })
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran = %v, want exactly the events at 10 and 50", ran)
	}
	if e.Now() != 50 {
		t.Errorf("Now() = %v, want 50", e.Now())
	}
	// The event at 100 must still be pending.
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEngineRunAdvancesToHorizonWhenIdle(t *testing.T) {
	e := NewEngine(1)
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1000 {
		t.Errorf("Now() = %v, want 1000", e.Now())
	}
}

func TestEngineRunUntilPausesBeforeHorizon(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	e.At(10, func() { ran = append(ran, 10) })
	e.At(50, func() { ran = append(ran, 50) })
	e.At(100, func() { ran = append(ran, 100) })
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	// Strictly-before semantics: 10 fires, 50 and 100 stay pending.
	if len(ran) != 1 || ran[0] != 10 {
		t.Fatalf("ran = %v, want [10]", ran)
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v, want 10 (clock not forced to horizon)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	// The pause point accepts injection at any time >= the horizon...
	e.At(50, func() { ran = append(ran, 51) }) // FIFO after the original 50
	// ...and resuming picks everything up in order.
	if err := e.RunUntil(101); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 50, 51, 100}
	if len(ran) != len(want) {
		t.Fatalf("ran = %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran = %v, want %v", ran, want)
		}
	}
}

func TestEngineRunUntilEmptyAndHalt(t *testing.T) {
	e := NewEngine(1)
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Errorf("Now() = %v, want 0 on empty queue", e.Now())
	}
	e.At(5, func() { e.Halt() })
	e.At(6, func() { t.Error("event after halt ran") })
	if err := e.RunUntil(10); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
}

func TestEngineNextAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt() ok on empty queue")
	}
	ev := e.At(30, func() {})
	e.At(70, func() {})
	if at, ok := e.NextAt(); !ok || at != 30 {
		t.Errorf("NextAt() = %v,%v, want 30,true", at, ok)
	}
	// Cancelled heads are skipped.
	e.Cancel(ev)
	if at, ok := e.NextAt(); !ok || at != 70 {
		t.Errorf("NextAt() after cancel = %v,%v, want 70,true", at, ok)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() {
		count++
		e.Halt()
	})
	e.At(2, func() { count++ })
	if err := e.RunUntilIdle(); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Error("Step() on empty queue = true")
	}
}

// Property: for any set of scheduled times, dispatch order is sorted and
// stable (FIFO among equals).
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(42)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := Time(d)
			i := i
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return len(got) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(7).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpDurationMean(t *testing.T) {
	r := NewRNG(11)
	const mean = 1000 * Nanosecond
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 0 {
			t.Fatalf("negative duration %v", d)
		}
		sum += float64(d)
	}
	got := sum / n
	if got < 950 || got > 1050 {
		t.Errorf("empirical mean = %v, want ~1000", got)
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		j := r.Jitter(100)
		if j < -100 || j > 100 {
			t.Fatalf("Jitter(100) = %v out of range", j)
		}
	}
	if r.Jitter(0) != 0 {
		t.Error("Jitter(0) != 0")
	}
}

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// The event-queue benchmarks time the hierarchical timing wheel in
// isolation, one dispatched event per op. The three workloads bracket
// what the datapath generates: churn is the softirq steady state (a few
// hundred outstanding events, microsecond-scale delays), cancel-rearm is
// the kernel-timer pattern (most timers cancelled and re-armed before
// firing), and cascade-far forces events through the coarse wheels and
// the overflow level. TestEventQueueSteadyStateZeroAlloc holds the first
// two to zero allocations once warm.

// eqChurn re-arms itself with an exponential delay on every dispatch,
// keeping a fixed population of outstanding events. eqChurnFire is the
// allocation-free CallAt trampoline.
type eqChurn struct {
	eng  *Engine
	mean Time
}

func eqChurnFire(now Time, a1, _ any) {
	c := a1.(*eqChurn)
	c.eng.CallAt(now+c.eng.RNG().ExpDuration(c.mean), eqChurnFire, a1, nil)
}

// armChurn adds n self-re-arming events with the given mean delay to eng.
func armChurn(eng *Engine, n int, mean Time) {
	c := &eqChurn{eng: eng, mean: mean}
	for i := 0; i < n; i++ {
		eng.CallAt(eng.RNG().ExpDuration(mean), eqChurnFire, c, nil)
	}
}

// eqRearm keeps a fixed set of armed timers; each op cancels and re-arms
// a random one, and every other op also dispatches the earliest event.
type eqRearm struct {
	eng     *Engine
	handles []*Event
	ops     int
}

func newRearm(eng *Engine, armed int) *eqRearm {
	r := &eqRearm{eng: eng, handles: make([]*Event, armed)}
	for i := range r.handles {
		r.arm(i)
	}
	return r
}

func (r *eqRearm) arm(i int) {
	r.handles[i] = r.eng.At(r.eng.Now()+10*Microsecond+Time(r.eng.RNG().Intn(4096)), func() {})
}

func (r *eqRearm) op() {
	j := r.eng.RNG().Intn(len(r.handles))
	r.eng.Cancel(r.handles[j])
	r.arm(j)
	if r.ops&1 == 0 {
		r.eng.Step()
	}
	r.ops++
}

func BenchmarkEventQueue(b *testing.B) {
	b.Run("churn-256", func(b *testing.B) {
		eng := NewEngine(7)
		armChurn(eng, 256, Microsecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	b.Run("cancel-rearm", func(b *testing.B) {
		r := newRearm(NewEngine(7), 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.op()
		}
	})
	b.Run("cascade-far", func(b *testing.B) {
		eng := NewEngine(7)
		armChurn(eng, 256, 4*Millisecond)
		// A sparse population of far-future events keeps the coarse
		// wheels and the overflow level populated across the run.
		armChurn(eng, 16, 300*Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
}

// TestEventQueueSteadyStateZeroAlloc is the allocation gate for the timing
// wheel: once the free list and the wheel slots have grown to the working
// set, dispatching a churn event and cancelling and re-arming a timer must
// not touch the heap.
func TestEventQueueSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine(7)
	armChurn(eng, 256, Microsecond)
	for i := 0; i < 100_000; i++ {
		eng.Step()
	}
	if avg := testing.AllocsPerRun(10_000, func() { eng.Step() }); avg != 0 {
		t.Errorf("churn-256 Step allocates %.2f times per event", avg)
	}

	r := newRearm(NewEngine(7), 256)
	for i := 0; i < 100_000; i++ {
		r.op()
	}
	if avg := testing.AllocsPerRun(10_000, r.op); avg != 0 {
		t.Errorf("cancel+re-arm allocates %.2f times per op", avg)
	}
}

// TestEngineFootprint pins the engine's fixed size: every par shard owns
// one engine, so a wider near wheel or an extra coarse level shows up
// once per shard. The wheels' slot arrays are about 53 KiB; the bound
// leaves room for a few scalar fields, not for another wheel.
func TestEngineFootprint(t *testing.T) {
	const limit = 54 << 10
	if sz := unsafe.Sizeof(Engine{}); sz > limit {
		t.Fatalf("Engine is %d bytes, want at most %d", sz, limit)
	}
}
