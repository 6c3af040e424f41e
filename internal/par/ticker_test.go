package par

import (
	"reflect"
	"testing"

	"prism/internal/sim"
)

func TestTickerQuantization(t *testing.T) {
	var fired []sim.Time
	tk := NewTicker(10, func(at sim.Time) { fired = append(fired, at) })

	tk.Advance(5) // nothing due yet
	tk.Advance(25)
	tk.Advance(25) // idempotent at the same boundary
	tk.Advance(40)
	want := []sim.Time{10, 20, 30, 40}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}

	// Flush reports a final partial interval once and realigns the grid.
	tk.Flush(45)
	tk.Flush(45)
	tk.Advance(60)
	want = append(want, 45, 50, 60)
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("after flush, fired = %v, want %v", fired, want)
	}

	// Flush at an already-covered time is a no-op.
	tk.Flush(60)
	if len(fired) != len(want) {
		t.Errorf("flush at covered boundary refired: %v", fired)
	}
}

func TestTickerNilSafe(t *testing.T) {
	var tk *Ticker
	tk.Advance(100)
	tk.Flush(100)
	NewTicker(0, func(sim.Time) { t.Error("zero-interval ticker fired") }).Advance(100)
	NewTicker(10, nil).Advance(100)
}

// A barrier hook observes every window exactly once and never perturbs
// the window schedule: Windows and results match a hook-free run.
func TestGroupOnBarrier(t *testing.T) {
	build := func(hook bool) (*Group, *int, *[]sim.Time) {
		g := NewGroup()
		a := g.Add("a", sim.NewEngine(1))
		b := g.Add("b", sim.NewEngine(2))
		la := g.Connect(a, b, 10, func(at sim.Time, frame []byte) {})
		count := 0
		a.Eng.At(0, func() {})
		var rec func(at sim.Time)
		rec = func(at sim.Time) {
			count++
			if count < 5 {
				la.Send(a.Eng.Now(), 10, nil)
				a.Eng.At(a.Eng.Now()+7, func() { rec(a.Eng.Now()) })
			}
		}
		a.Eng.At(3, func() { rec(3) })
		var ends []sim.Time
		if hook {
			g.OnBarrier = func(end sim.Time) { ends = append(ends, end) }
		}
		return g, &count, &ends
	}

	gPlain, _, _ := build(false)
	if err := gPlain.Run(100, 1); err != nil {
		t.Fatal(err)
	}
	gHook, count, ends := build(true)
	if err := gHook.Run(100, 2); err != nil {
		t.Fatal(err)
	}
	if gHook.Windows != gPlain.Windows {
		t.Errorf("hook changed window schedule: %d vs %d", gHook.Windows, gPlain.Windows)
	}
	if uint64(len(*ends)) != gHook.Windows {
		t.Errorf("hook fired %d times over %d windows", len(*ends), gHook.Windows)
	}
	for i := 1; i < len(*ends); i++ {
		if (*ends)[i] <= (*ends)[i-1] {
			t.Errorf("window ends not strictly increasing: %v", *ends)
		}
	}
	if *count != 5 {
		t.Errorf("workload ran %d steps, want 5", *count)
	}
}
