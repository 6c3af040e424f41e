// Package stats provides the measurement machinery used by every
// experiment: a log-bucketed latency histogram (in the spirit of
// HdrHistogram), percentile and CDF extraction, and rate counters.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"prism/internal/sim"
)

// Histogram records int64 nanosecond values with bounded relative error.
//
// Values are bucketed as (exponent, mantissa-slot): each power-of-two range
// is split into subBuckets linear slots, giving a worst-case relative
// quantile error of 1/subBuckets (~0.8%). The zero value is NOT ready to
// use; call NewHistogram.
//
// Buckets live in chunks of chunkLen consecutive counters, a quarter of
// an exponent range each (chunk 0 starts the linear range [0, subBuckets)).
// A chunk is allocated on the first observation in it and never copied,
// and the chunk table spans only the exponent ranges between the lowest
// and the highest chunk held, so a histogram pays for the buckets near
// the values it has seen: latency histograms rarely touch more than a
// handful of the 228 chunks an int64 can reach.
type Histogram struct {
	chunks []*[chunkLen]uint64 // chunks[k] holds chunk base+k; nil until hit
	base   int
	count  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	subBuckets = 128
	subShift   = 7 // log2(subBuckets)
	chunkLen   = 32
	chunkShift = 5 // log2(chunkLen)
	// rangeChunks is the number of chunks per exponent range.
	rangeChunks = subBuckets / chunkLen
)

// NewHistogram returns an empty histogram able to record any non-negative
// int64 nanosecond value. It allocates no buckets until the first Record.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: -1}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	u := uint64(v)
	exp := bits.Len64(u) - subShift - 1 // how far above the linear range
	slot := int(u >> uint(exp))         // in [subBuckets, 2*subBuckets)
	return exp*subBuckets + slot
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets - 1
	slot := i - exp*subBuckets // in [subBuckets, 2*subBuckets)
	return int64(slot) << uint(exp)
}

// Record adds one observation. Negative values are clamped to zero: they
// can only arise from model bugs, and the invariant tests catch those
// separately.
func (h *Histogram) Record(v sim.Time) {
	n := int64(v)
	if n < 0 {
		n = 0
	}
	i := bucketIndex(n)
	ck := h.chunk(i >> chunkShift)
	if ck == nil {
		ck = h.newChunk(i >> chunkShift)
	}
	ck[i&(chunkLen-1)]++
	h.count++
	h.sum += float64(n)
	if n < h.min {
		h.min = n
	}
	if n > h.max {
		h.max = n
	}
}

// chunk returns chunk c, or nil when h does not hold it.
func (h *Histogram) chunk(c int) *[chunkLen]uint64 {
	if k := uint(c - h.base); k < uint(len(h.chunks)) {
		return h.chunks[k]
	}
	return nil
}

// newChunk allocates chunk c, widening the chunk table to reach it.
func (h *Histogram) newChunk(c int) *[chunkLen]uint64 {
	h.cover(c, c)
	ck := new([chunkLen]uint64)
	h.chunks[c-h.base] = ck
	return ck
}

// cover widens the chunk table to span chunks lo through hi as well as
// the ones it already spans. The table spans whole exponent ranges, so
// values wandering within a range never regrow it.
func (h *Histogram) cover(lo, hi int) {
	if n := len(h.chunks); n > 0 {
		lo, hi = min(lo, h.base), max(hi, h.base+n-1)
	}
	lo, hi = lo&^(rangeChunks-1), hi|(rangeChunks-1)
	if lo == h.base && hi-lo+1 == len(h.chunks) {
		return
	}
	chunks := make([]*[chunkLen]uint64, hi-lo+1)
	if len(h.chunks) > 0 {
		copy(chunks[h.base-lo:], h.chunks)
	}
	h.chunks, h.base = chunks, lo
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded values in nanoseconds; exporters
// (Prometheus summaries) need it alongside Count.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.min)
}

// Max returns an upper bound of the largest recorded value (exact to bucket
// resolution), or 0 if empty.
func (h *Histogram) Max() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.max)
}

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.count))
}

// Quantile returns the value at quantile q in [0,1]. For q=0 it returns
// Min; for q=1 it returns Max. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for k, ck := range h.chunks {
		if ck == nil {
			continue
		}
		for j, c := range ck {
			seen += c
			if seen >= rank {
				v := bucketLow((h.base+k)<<chunkShift | j)
				// Clamp to the exact observed range so quantiles are
				// monotone with the exact Min/Max endpoints.
				if v < h.min {
					v = h.min
				}
				if v > h.max {
					v = h.max
				}
				return sim.Time(v)
			}
		}
	}
	return sim.Time(h.max)
}

// Percentile returns the value at percentile p on the 0–100 scale the
// paper's tables use: Percentile(0) is the exact Min, Percentile(100) the
// exact Max, and out-of-range p is clamped to those endpoints. An empty
// histogram returns 0 for every p.
func (h *Histogram) Percentile(p float64) sim.Time {
	return h.Quantile(p / 100)
}

// Median is Quantile(0.5).
func (h *Histogram) Median() sim.Time { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() sim.Time { return h.Quantile(0.99) }

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    sim.Time // latency
	Fraction float64  // cumulative fraction of observations <= Value
}

// CDF returns the cumulative distribution with one point per non-empty
// bucket, suitable for plotting Fig. 3/9/10-style curves.
func (h *Histogram) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, 64)
	var seen uint64
	for k, ck := range h.chunks {
		if ck == nil {
			continue
		}
		for j, c := range ck {
			if c == 0 {
				continue
			}
			seen += c
			pts = append(pts, CDFPoint{
				Value:    sim.Time(bucketLow((h.base+k)<<chunkShift | j)),
				Fraction: float64(seen) / float64(h.count),
			})
		}
	}
	return pts
}

// Merge adds all observations of other into h, allocating in h only the
// chunks other holds.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	h.cover(other.base, other.base+len(other.chunks)-1)
	for k, src := range other.chunks {
		if src == nil {
			continue
		}
		dst := h.chunk(other.base + k)
		if dst == nil {
			dst = h.newChunk(other.base + k)
		}
		for j, c := range src {
			dst[j] += c
		}
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// MergeHistograms combines shard-local histograms into a fresh one,
// folding them in slice order. Bucket counts are order-independent, but
// taking shards in ID order keeps the operation deterministic by
// construction, matching the merge discipline of every other recorder
// under sharding (see internal/par).
func MergeHistograms(hs ...*Histogram) *Histogram {
	out := NewHistogram()
	for _, h := range hs {
		out.Merge(h)
	}
	return out
}

// Reset clears all recorded observations. Allocated chunks are zeroed and
// kept, so a reused histogram records into them without allocating.
func (h *Histogram) Reset() {
	for _, ck := range h.chunks {
		if ck != nil {
			clear(ck[:])
		}
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = -1
}

// Summary is a compact set of the statistics the paper reports.
type Summary struct {
	Count          uint64
	Min, Mean, Max sim.Time
	P50, P90, P99  sim.Time
	P999           sim.Time
}

// Summarize extracts a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Min:   h.Min(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// String renders the summary as a single human-readable line in µs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1fµs p50=%.1fµs mean=%.1fµs p90=%.1fµs p99=%.1fµs p99.9=%.1fµs max=%.1fµs",
		s.Count, s.Min.Micros(), s.P50.Micros(), s.Mean.Micros(),
		s.P90.Micros(), s.P99.Micros(), s.P999.Micros(), s.Max.Micros())
}

// FormatCDF renders a CDF as "value_us fraction" lines, the format the
// plotting pipeline and EXPERIMENTS.md tables consume.
func FormatCDF(pts []CDFPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%.2f\t%.6f\n", p.Value.Micros(), p.Fraction)
	}
	return b.String()
}

// QuantileOfSorted returns the q-quantile of a sorted slice using nearest
// rank. It is the exact counterpart of Histogram.Quantile for tests.
func QuantileOfSorted(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// SortTimes sorts a slice of times ascending (helper for exact-quantile
// comparisons in tests).
func SortTimes(ts []sim.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
