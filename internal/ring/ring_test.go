package ring

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFIFOMatchesSlice drives the ring and the slice idiom it replaces
// (q = q[1:] to pop the front, q = q[:len-1] to pop the back, append to
// push) through the same random operation stream: the slice is the
// reference implementation, and every observable must agree.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var ref []int
	for op := 0; op < 20_000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			q.Push(op)
			ref = append(ref, op)
		case r < 8 && len(ref) > 0:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, ref[0])
			}
			ref = ref[1:]
		case r < 9 && len(ref) > 0:
			if got := q.PopBack(); got != ref[len(ref)-1] {
				t.Fatalf("op %d: PopBack = %d, want %d", op, got, ref[len(ref)-1])
			}
			ref = ref[:len(ref)-1]
		case rng.Intn(50) == 0:
			q.Clear()
			ref = ref[:0]
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, q.Len(), len(ref))
		}
	}
	var drained []int
	for q.Len() > 0 {
		drained = append(drained, q.Pop())
	}
	if len(ref) == 0 {
		ref = nil
	}
	if !reflect.DeepEqual(drained, ref) {
		t.Fatalf("drained %v, want %v", drained, ref)
	}
}

// TestFIFOZeroesPoppedSlots checks that handed-out elements are not
// retained by the buffer.
func TestFIFOZeroesPoppedSlots(t *testing.T) {
	var q FIFO[[]byte]
	q.Push([]byte{1})
	q.Push([]byte{2})
	q.Push([]byte{3})
	q.Pop()
	q.PopBack()
	nonNil := 0
	for _, b := range q.buf {
		if b != nil {
			nonNil++
		}
	}
	if nonNil != 1 {
		t.Fatalf("%d live slots after popping two of three, want 1", nonNil)
	}
	q.Clear()
	for i, b := range q.buf {
		if b != nil {
			t.Fatalf("slot %d still set after Clear", i)
		}
	}
}

func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var q FIFO[[]byte]
	frame := make([]byte, 64)
	for i := 0; i < 100; i++ {
		q.Push(frame)
	}
	q.Clear()
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			q.Push(frame)
		}
		for q.Len() > 1 {
			q.Pop()
		}
		q.PopBack()
	}); avg != 0 {
		t.Errorf("warm FIFO allocates %.1f times per cycle", avg)
	}
}

func TestFIFOPanicsWhenEmpty(t *testing.T) {
	for name, fn := range map[string]func(*FIFO[int]){
		"Pop":     func(q *FIFO[int]) { q.Pop() },
		"PopBack": func(q *FIFO[int]) { q.PopBack() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty FIFO did not panic", name)
				}
			}()
			fn(&FIFO[int]{})
		}()
	}
}
