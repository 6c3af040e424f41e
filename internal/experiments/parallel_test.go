package experiments

import (
	"reflect"
	"testing"

	"prism/internal/sim"
)

// detParams shrinks runs further than quick(): the determinism matrix
// re-runs each experiment once per worker count, so equality (not
// statistical quality) is what matters.
func detParams() Params {
	p := quickParams()
	p.Warmup = 5 * sim.Millisecond
	p.Duration = 50 * sim.Millisecond
	return p
}

// TestFig9ParallelDeterministic is the ISSUE's determinism regression for
// the figure drivers: Fig. 9 sequentially and with -parallel 2/4 must be
// bit-identical — summaries, CDF bucket lists, kernel residencies, all of
// it (reflect.DeepEqual over the whole result).
func TestFig9ParallelDeterministic(t *testing.T) {
	run := func(workers int) Fig9Result {
		p := detParams()
		p.Workers = workers
		return Fig9(p)
	}
	seq := run(1)
	if len(seq.Rows) != len(Modes) || seq.Rows[0].Busy.Count == 0 {
		t.Fatalf("sequential reference looks empty: %+v", seq)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(seq, got) {
			t.Errorf("Fig9 with %d workers diverged from sequential\nseq: %+v\ngot: %+v", w, seq, got)
		}
	}
}

// TestScalingParallelDeterministic covers the RSS scaling driver the same
// way.
func TestScalingParallelDeterministic(t *testing.T) {
	run := func(workers int) ScalingResult {
		p := detParams()
		p.Workers = workers
		return Scaling(p, []int{1, 2})
	}
	seq := run(1)
	if len(seq.Points) != 2 || seq.Points[0].AggKpps == 0 {
		t.Fatalf("sequential reference looks empty: %+v", seq)
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(seq, got) {
			t.Errorf("Scaling with %d workers diverged from sequential\nseq: %+v\ngot: %+v", w, got, seq)
		}
	}
}
