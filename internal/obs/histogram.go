package obs

import "math/bits"

// Histogram is a log-bucketed histogram of non-negative integer samples
// (cycle counts, occupancies, depths). Each power-of-two octave [2^e, 2^(e+1))
// is split into 4 linear sub-buckets, so a bucket's relative width — and
// therefore the worst-case relative error of Quantile — is at most 25%.
// Values below 4 get exact unit-width buckets; negative values clamp into
// bucket 0. Count, Sum, Min and Max are tracked exactly.
//
// The zero value is NOT ready to use; create with NewHistogram (or through
// Registry.Histogram).
type Histogram struct {
	counts []uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// histSubBits is log2 of the sub-buckets per octave.
const histSubBits = 2

// numHistBuckets covers int64 values: 4 exact buckets for 0..3, then 4
// sub-buckets for each octave 2^2 .. 2^62.
const numHistBuckets = 4 + (63-histSubBits)*4

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, numHistBuckets), min: 1<<63 - 1}
}

// BucketIndex returns the bucket a value lands in; exported for tests.
func BucketIndex(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= 2
	sub := int(uint64(v)>>(uint(exp)-histSubBits)) & 3
	return 4 + (exp-2)*4 + sub
}

// BucketLowerBound returns the smallest value mapping to bucket i; exported
// for tests and for rendering bucket boundaries.
func BucketLowerBound(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	exp := (i-4)/4 + 2
	sub := (i - 4) % 4
	return int64(4+sub) << (uint(exp) - histSubBits)
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[BucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observed sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (q in [0,1]) as the lower bound of the
// bucket holding the rank-ceil(q*count) sample, clamped to the exact min and
// max. The estimate is within 25% relative error of the true value by bucket
// construction, and exact for values below 4.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.Min())
	}
	if q >= 1 {
		return float64(h.Max())
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			v := BucketLowerBound(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return float64(v)
		}
	}
	return float64(h.Max())
}

// Merge folds every sample of o into h, as if each had been Observed here.
// Bucket counts and sums add exactly; min/max tighten to the combined range.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Clone returns an independent deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		counts: make([]uint64, len(h.counts)),
		count:  h.count,
		sum:    h.sum,
		min:    h.min,
		max:    h.max,
	}
	copy(c.counts, h.counts)
	return c
}

// Buckets calls fn for every non-empty bucket with its inclusive lower
// bound, exclusive upper bound, and count, in ascending value order.
func (h *Histogram) Buckets(fn func(lo, hi int64, count uint64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		hi := int64(1<<63 - 1)
		if i+1 < numHistBuckets {
			hi = BucketLowerBound(i + 1)
		}
		fn(BucketLowerBound(i), hi, c)
	}
}
