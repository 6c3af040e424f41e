package stats

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"prism/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram stats not all zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	if h.CDF() != nil {
		t.Error("empty histogram CDF != nil")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	if h.Count() != 1 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Errorf("min/max/mean = %v/%v/%v, want 42", h.Min(), h.Max(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if h.Quantile(q) != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, h.Quantile(q))
		}
	}
}

func TestHistogramPercentile(t *testing.T) {
	scale := NewHistogram()
	for i := 1; i <= 100; i++ {
		scale.Record(sim.Time(i))
	}
	single := NewHistogram()
	single.Record(42)

	tests := []struct {
		name string
		h    *Histogram
		p    float64
		want sim.Time
	}{
		{"empty returns zero", NewHistogram(), 50, 0},
		{"empty min", NewHistogram(), 0, 0},
		{"empty max", NewHistogram(), 100, 0},
		{"zero is exact min", scale, 0, 1},
		{"hundred is exact max", scale, 100, 100},
		{"median nearest rank", scale, 50, 50},
		{"p99", scale, 99, 99},
		{"below range clamps to min", scale, -5, 1},
		{"above range clamps to max", scale, 150, 100},
		{"single value any p", single, 73, 42},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.Percentile(tc.p); got != tc.want {
				t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below subBuckets are recorded exactly.
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(sim.Time(i))
	}
	// Nearest-rank: median of 0..99 is the 50th smallest value, i.e. 49.
	if got := h.Quantile(0.5); got != 49 {
		t.Errorf("median = %v, want 49", got)
	}
	if got := h.Quantile(0.99); got != 98 {
		t.Errorf("p99 = %v, want 98", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Errorf("Min = %v, want 0", h.Min())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	var exact []sim.Time
	r := sim.NewRNG(9)
	for i := 0; i < 50000; i++ {
		v := sim.Time(r.Intn(100_000_000)) // up to 100ms
		h.Record(v)
		exact = append(exact, v)
	}
	SortTimes(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := QuantileOfSorted(exact, q)
		got := h.Quantile(q)
		if want == 0 {
			continue
		}
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.01 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f)", q, got, want, relErr)
		}
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Record(sim.Time(v))
		}
		prev := sim.Time(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10; i++ {
		h.Record(sim.Time(i))
	}
	pts := h.CDF()
	if len(pts) != 10 {
		t.Fatalf("CDF has %d points, want 10", len(pts))
	}
	if pts[len(pts)-1].Fraction != 1.0 {
		t.Errorf("last CDF fraction = %v, want 1", pts[len(pts)-1].Fraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction <= pts[i-1].Fraction || pts[i].Value <= pts[i-1].Value {
			t.Errorf("CDF not strictly increasing at %d", i)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(sim.Time(i))
		b.Record(sim.Time(i + 100))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Errorf("Count = %d, want 200", a.Count())
	}
	if a.Min() != 0 || a.Max() != 199 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
	a.Merge(nil) // no-op
	if a.Count() != 200 {
		t.Error("Merge(nil) changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Error("histogram unusable after Reset")
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	s := h.Summarize()
	if s.Count != 1 {
		t.Errorf("Count = %d", s.Count)
	}
	str := s.String()
	if str == "" {
		t.Error("empty summary string")
	}
}

func TestFormatCDF(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Record(2000)
	out := FormatCDF(h.CDF())
	if out == "" {
		t.Error("empty CDF output")
	}
}

func TestQuantileOfSortedEdges(t *testing.T) {
	if QuantileOfSorted(nil, 0.5) != 0 {
		t.Error("empty slice quantile != 0")
	}
	s := []sim.Time{10, 20, 30}
	if QuantileOfSorted(s, 0) != 10 || QuantileOfSorted(s, 1) != 30 {
		t.Error("edge quantiles wrong")
	}
	if QuantileOfSorted(s, 0.5) != 20 {
		t.Error("median wrong")
	}
}

func TestRateCounter(t *testing.T) {
	c := NewRateCounter("rx")
	c.Start(0)
	// 1000 packets of 100B over 10ms => 100 kpps, 0.08 Gbps
	for i := 0; i < 1000; i++ {
		c.Add(sim.Time(i)*10*sim.Microsecond, 1, 100)
	}
	now := 10 * sim.Millisecond
	if got := c.Kpps(now); math.Abs(got-100) > 1 {
		t.Errorf("Kpps = %v, want ~100", got)
	}
	if got := c.Gbps(now); math.Abs(got-0.08) > 0.001 {
		t.Errorf("Gbps = %v, want ~0.08", got)
	}
	if c.Count() != 1000 || c.Bytes() != 100000 {
		t.Errorf("count/bytes = %d/%d", c.Count(), c.Bytes())
	}
	if c.String() == "" {
		t.Error("empty string")
	}
}

func TestRateCounterAutoStart(t *testing.T) {
	// Add before Start opens the window at the first observation's
	// timestamp, not at time zero: 5 events at t=1s then 5 at t=2s is
	// 10 events over a 1s window.
	c := NewRateCounter("x")
	c.Add(sim.Second, 5, 0)
	c.Add(2*sim.Second, 5, 0)
	if got := c.PerSecond(2 * sim.Second); math.Abs(got-10) > 0.01 {
		t.Errorf("PerSecond = %v, want 10 (window starts at first Add)", got)
	}
}

func TestRateCounterNonMonotonic(t *testing.T) {
	// Merged shard streams can replay observations out of timestamp order.
	// Every event still counts, the window's start stays at the first
	// observation, and its end never regresses below the latest time seen.
	c := NewRateCounter("x")
	c.Add(2*sim.Second, 1, 0)
	c.Add(sim.Second, 1, 0) // out of order: must not move the window
	c.Add(3*sim.Second, 1, 0)
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	// Window is [2s, 3s]: 3 events over 1s.
	if got := c.PerSecond(3 * sim.Second); math.Abs(got-3) > 0.01 {
		t.Errorf("PerSecond = %v, want 3", got)
	}
	if v := c.PerSecond(2 * sim.Second); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("PerSecond with stale now = %v", v)
	}
}

func TestRateCounterZeroWindow(t *testing.T) {
	c := NewRateCounter("x")
	c.Start(100)
	c.Add(100, 1, 1)
	// Must not divide by zero.
	if v := c.PerSecond(100); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("PerSecond on zero window = %v", v)
	}
}

func TestMergeHistogramsMatchesSingleRecorder(t *testing.T) {
	// Shard-local recording split across three histograms must merge to
	// exactly what one recorder would have seen.
	whole := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	rng := sim.NewRNG(9)
	for i := 0; i < 5000; i++ {
		v := sim.Time(rng.Intn(2_000_000))
		whole.Record(v)
		parts[i%3].Record(v)
	}
	merged := MergeHistograms(parts...)
	if !reflect.DeepEqual(merged.Summarize(), whole.Summarize()) {
		t.Errorf("merged summary %v != whole %v", merged.Summarize(), whole.Summarize())
	}
	if !reflect.DeepEqual(merged.CDF(), whole.CDF()) {
		t.Error("merged CDF bucket counts differ from single-recorder CDF")
	}
	// Merge order cannot matter for the contents.
	reversed := MergeHistograms(parts[2], parts[1], parts[0])
	if !reflect.DeepEqual(reversed.CDF(), merged.CDF()) {
		t.Error("merge is order-sensitive")
	}
}

func TestMergeHistogramsEmpty(t *testing.T) {
	m := MergeHistograms()
	if m.Count() != 0 {
		t.Errorf("empty merge count = %d", m.Count())
	}
	m = MergeHistograms(NewHistogram(), nil)
	if m.Count() != 0 {
		t.Errorf("merge with nil count = %d", m.Count())
	}
}

// denseHist is the differential oracle for Histogram: one flat table with
// a counter for every bucket an int64 can reach, allocated up front. Its
// bucket math is written from the definition (values below 128 are exact;
// above, each power-of-two range is cut into 128 equal slots) rather than
// shared with the code under test.
type denseHist struct {
	counts   []uint64
	count    uint64
	sum      float64
	min, max int64
}

func newDenseHist() *denseHist {
	return &denseHist{counts: make([]uint64, 64*128), min: math.MaxInt64, max: -1}
}

// denseIndex finds v's bucket by shifting v right until it fits in
// [128, 256): the shift count is the exponent range, the result the slot.
func denseIndex(v int64) int {
	if v < 128 {
		return int(v)
	}
	shift := 0
	for v>>shift >= 256 {
		shift++
	}
	return (shift+1)*128 + int(v>>shift) - 128
}

// denseLow is the smallest value whose bucket is i.
func denseLow(i int) int64 {
	if i < 128 {
		return int64(i)
	}
	shift := i/128 - 1
	return int64(128+i%128) << shift
}

func (d *denseHist) Record(v sim.Time) {
	n := max(int64(v), 0)
	d.counts[denseIndex(n)]++
	d.count++
	d.sum += float64(n)
	d.min = min(d.min, n)
	d.max = max(d.max, n)
}

func (d *denseHist) Quantile(q float64) sim.Time {
	switch {
	case d.count == 0:
		return 0
	case q <= 0:
		return sim.Time(d.min)
	case q >= 1:
		return sim.Time(d.max)
	}
	rank := max(uint64(math.Ceil(q*float64(d.count))), 1)
	var seen uint64
	for i, c := range d.counts {
		if seen += c; seen >= rank {
			return sim.Time(min(max(denseLow(i), d.min), d.max))
		}
	}
	return sim.Time(d.max)
}

func (d *denseHist) CDF() []CDFPoint {
	var pts []CDFPoint
	var seen uint64
	for i, c := range d.counts {
		if c > 0 {
			seen += c
			pts = append(pts, CDFPoint{Value: sim.Time(denseLow(i)), Fraction: float64(seen) / float64(d.count)})
		}
	}
	return pts
}

func (d *denseHist) Merge(o *denseHist) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.count += o.count
	d.sum += o.sum
	d.min = min(d.min, o.min)
	d.max = max(d.max, o.max)
}

func (d *denseHist) Reset() { *d = *newDenseHist() }

// sameHist reports the first observable difference between a histogram
// and its dense reference.
func sameHist(t *testing.T, what string, got *Histogram, want *denseHist) {
	t.Helper()
	wantMin, wantMax := sim.Time(want.min), sim.Time(want.max)
	if want.count == 0 {
		wantMin, wantMax = 0, 0
	}
	if got.Count() != want.count || got.Sum() != want.sum || got.Min() != wantMin || got.Max() != wantMax {
		t.Fatalf("%s: count/sum/min/max %d/%g/%v/%v, want %d/%g/%v/%v", what,
			got.Count(), got.Sum(), got.Min(), got.Max(), want.count, want.sum, wantMin, wantMax)
	}
	for q := 0.0; q <= 1; q += 0.0025 {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, g, w)
		}
	}
	if g, w := got.CDF(), want.CDF(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: CDF has %d points, want %d (or values differ)", what, len(g), len(w))
	}
}

// allocatedChunks counts the chunks h holds.
func allocatedChunks(h *Histogram) int {
	n := 0
	for _, ck := range h.chunks {
		if ck != nil {
			n++
		}
	}
	return n
}

// Sparse chunks are observably identical to the dense table: values
// spanning every exponent range, the linear-range boundary and the largest
// recordable value, then merges of short into long and long into short.
func TestSparseHistogramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := []sim.Time{0, subBuckets - 1, subBuckets, subBuckets + 1, 1<<62 - 1}
	fill := func(h *Histogram, ref *denseHist, n int, maxExp int) {
		for i := 0; i < n; i++ {
			v := sim.Time(rng.Int63n(int64(1) << uint(1+rng.Intn(maxExp))))
			if i < len(edges) && maxExp == 62 {
				v = edges[i]
			}
			h.Record(v)
			ref.Record(v)
		}
	}
	short, shortRef := NewHistogram(), newDenseHist()
	fill(short, shortRef, 500, 12) // values below 4 µs
	long, longRef := NewHistogram(), newDenseHist()
	fill(long, longRef, 5000, 62)
	if allocatedChunks(short) >= allocatedChunks(long) {
		t.Fatalf("short holds %d chunks, long %d", allocatedChunks(short), allocatedChunks(long))
	}
	sameHist(t, "short", short, shortRef)
	sameHist(t, "long", long, longRef)

	s2l, s2lRef := NewHistogram(), newDenseHist()
	for _, h := range []*Histogram{long, short} {
		s2l.Merge(h)
	}
	for _, h := range []*denseHist{longRef, shortRef} {
		s2lRef.Merge(h)
	}
	sameHist(t, "short into long", s2l, s2lRef)

	l2s, l2sRef := NewHistogram(), newDenseHist()
	l2s.Merge(short)
	l2s.Merge(long)
	l2sRef.Merge(shortRef)
	l2sRef.Merge(longRef)
	sameHist(t, "long into short", l2s, l2sRef)
	sameHist(t, "MergeHistograms", MergeHistograms(short, long), l2sRef)

	short.Reset()
	shortRef.Reset()
	fill(short, shortRef, 300, 62)
	sameHist(t, "after Reset", short, shortRef)
}

// FuzzHistogramMatchesDense drives two histograms and their dense
// references through the same byte-coded stream of records, merges and
// resets, then compares everything observable.
func FuzzHistogramMatchesDense(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 7, 0xff, 2, 62, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4})
	f.Add([]byte{0, 20, 1, 2, 1, 40, 3, 4, 1, 5, 9, 5, 4, 0, 63, 0x80, 6})
	f.Add([]byte{2, 8, 0x80, 0, 12, 3, 1, 1, 30, 0xff, 0xff, 0x7f, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		hs := [2]*Histogram{NewHistogram(), NewHistogram()}
		refs := [2]*denseHist{newDenseHist(), newDenseHist()}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for ops := 0; len(data) > 0 && ops < 512; ops++ {
			op := next()
			k := int(op>>3) & 1
			switch op & 7 {
			case 0, 1, 2, 3:
				// A value of up to e random bits, e in [0, 63]; bit 4 of
				// the op negates it (negative values clamp to zero).
				e := uint(next() % 64)
				var m uint64
				for i := 0; i < 8; i++ {
					m = m<<8 | uint64(next())
				}
				v := sim.Time(m >> (64 - e))
				if op&0x10 != 0 {
					v = -v
				}
				hs[k].Record(v)
				refs[k].Record(v)
			case 4:
				hs[k].Merge(hs[1-k])
				refs[k].Merge(refs[1-k])
			case 5:
				hs[k].Reset()
				refs[k].Reset()
			case 6:
				m := MergeHistograms(hs[k], hs[1-k])
				ref := newDenseHist()
				ref.Merge(refs[k])
				ref.Merge(refs[1-k])
				hs[k], refs[k] = m, ref
			}
		}
		sameHist(t, "first", hs[0], refs[0])
		sameHist(t, "second", hs[1], refs[1])
	})
}

// A histogram holds a chunk only for the buckets it was given: records
// in one far chunk allocate exactly one chunk of chunkLen counters and,
// once it exists, nothing more; a merge allocates only the chunks the
// other histogram holds; and Reset zeroes chunks without freeing them.
func TestHistogramAllocatesOnlyHitRanges(t *testing.T) {
	far := NewHistogram()
	for v := sim.Time(1 << 40); v < 1<<40+1<<32; v += 1 << 25 {
		far.Record(v)
	}
	if n := allocatedChunks(far); n != 1 {
		t.Fatalf("values in one chunk allocated %d chunks, want 1", n)
	}
	// Every per-packet latency goes through Record: into a chunk that
	// already exists it must not allocate.
	if allocs := testing.AllocsPerRun(1000, func() { far.Record(1<<40 + 12345) }); allocs != 0 {
		t.Fatalf("Record into a hit chunk allocates %.1f times", allocs)
	}

	// The first Record into an empty histogram costs one 32-counter
	// chunk and a chunk table spanning one exponent range (four
	// pointers), however far out the value lies.
	const firstRecordBytes = 32*8 + 4*8
	fresh := make([]*Histogram, 64)
	for i := range fresh {
		fresh[i] = NewHistogram()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, h := range fresh {
		h.Record(sim.Time(1) << (i % 62))
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(fresh)); per > firstRecordBytes {
		t.Fatalf("first Record allocates %d bytes, want at most %d", per, firstRecordBytes)
	}
	for i, h := range fresh {
		if n := allocatedChunks(h); n != 1 || len(h.chunks) != rangeChunks {
			t.Fatalf("fresh[%d]: first Record left %d chunks in a %d-entry table, want 1 in %d", i, n, len(h.chunks), rangeChunks)
		}
	}

	near := NewHistogram()
	near.Record(5)
	near.Record(1000)
	near.Merge(far)
	if n := allocatedChunks(near); n != 3 {
		t.Fatalf("merge left %d chunks, want the 2 recorded plus far's 1", n)
	}
	if n := allocatedChunks(far); n != 1 {
		t.Fatalf("merge source grew to %d chunks", n)
	}

	kept := append([]*[chunkLen]uint64(nil), near.chunks...)
	near.Reset()
	if !reflect.DeepEqual(kept, near.chunks) {
		t.Fatal("Reset replaced or freed chunks")
	}
	for k, ck := range near.chunks {
		if ck != nil && *ck != [chunkLen]uint64{} {
			t.Fatalf("Reset left counts in chunk %d", near.base+k)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		near.Record(7)
		near.Record(1 << 40)
	}); allocs != 0 {
		t.Fatalf("Record into kept chunks after Reset allocates %.1f times", allocs)
	}
}

// BenchmarkHistogramRecord times Record into one warm histogram, and into
// 3,000 histograms (about the cluster's count) picked in scattered order,
// where each Record misses the cache for its histogram's chunk.
func BenchmarkHistogramRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]sim.Time, 1<<16)
	for i := range vals {
		vals[i] = sim.Time(rng.Int63n(int64(1) << uint(8+rng.Intn(16)))) // 256 ns to 16 ms
	}
	b.Run("warm", func(b *testing.B) {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Record(vals[i&(len(vals)-1)])
		}
	})
	b.Run("scattered", func(b *testing.B) {
		hs := make([]*Histogram, 3000)
		for i := range hs {
			hs[i] = NewHistogram()
		}
		which := make([]int, len(vals))
		for i := range which {
			which[i] = rng.Intn(len(hs))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (len(vals) - 1)
			hs[which[j]].Record(vals[j])
		}
	})
}
