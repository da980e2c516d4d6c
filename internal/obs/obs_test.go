package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	// Values below 4 get exact buckets.
	for v := int64(0); v < 4; v++ {
		if got := BucketIndex(v); got != int(v) {
			t.Errorf("BucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	if BucketIndex(-5) != 0 {
		t.Errorf("negative values must clamp to bucket 0")
	}
	// Each octave [2^e, 2^(e+1)) splits into 4 sub-buckets: boundaries
	// 4,5,6,7,8,10,12,14,16,20,24,28,32,...
	wantLo := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64}
	for i, lo := range wantLo {
		if got := BucketLowerBound(i); got != lo {
			t.Errorf("BucketLowerBound(%d) = %d, want %d", i, got, lo)
		}
	}
	// BucketIndex and BucketLowerBound must agree: every lower bound maps to
	// its own bucket, and the value just below it to the previous bucket.
	for i := 1; i < numHistBuckets; i++ {
		lo := BucketLowerBound(i)
		if got := BucketIndex(lo); got != i {
			t.Errorf("BucketIndex(%d) = %d, want %d", lo, got, i)
		}
		if got := BucketIndex(lo - 1); got != i-1 {
			t.Errorf("BucketIndex(%d) = %d, want %d", lo-1, got, i-1)
		}
	}
}

// TestQuantileExactSmall checks quantiles on a distribution entirely inside
// the exact (unit-width) buckets.
func TestQuantileExactSmall(t *testing.T) {
	h := NewHistogram()
	// 100 samples: 50x0, 30x1, 15x2, 5x3.
	for i, n := range []int{50, 30, 15, 5} {
		for j := 0; j < n; j++ {
			h.Observe(int64(i))
		}
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 0}, {0.25, 0}, {0.49, 0}, {0.5, 1}, {0.79, 1}, {0.80, 2}, {0.94, 2}, {0.95, 3}, {1, 3},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if h.Mean() != 0.75 {
		t.Errorf("Mean = %g, want 0.75", h.Mean())
	}
	if h.Min() != 0 || h.Max() != 3 {
		t.Errorf("Min/Max = %d/%d, want 0/3", h.Min(), h.Max())
	}
}

// TestQuantileBoundedError checks the 25% relative-error bound on a uniform
// distribution spanning many octaves.
func TestQuantileBoundedError(t *testing.T) {
	h := NewHistogram()
	var exact []int64
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := float64(exact[int(q*float64(len(exact)))])
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.25 {
			t.Errorf("Quantile(%g) = %g, exact %g, relative error %.2f > 0.25", q, got, want, rel)
		}
		if got > want {
			t.Errorf("Quantile(%g) = %g overestimates exact %g (lower-bound estimate must not)", q, got, want)
		}
	}
	if h.Sum() != 100000*100001/2 {
		t.Errorf("Sum = %d", h.Sum())
	}
}

func TestHistogramBucketsIteration(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 5, 5, 9, 1000} {
		h.Observe(v)
	}
	var total uint64
	prev := int64(-1)
	h.Buckets(func(lo, hi int64, count uint64) {
		if lo <= prev {
			t.Errorf("buckets not ascending: lo %d after %d", lo, prev)
		}
		if hi <= lo {
			t.Errorf("bucket [%d,%d) empty range", lo, hi)
		}
		prev = lo
		total += count
	})
	if total != 5 {
		t.Errorf("bucket counts sum to %d, want 5", total)
	}
}

func TestRegistryKindsAndOrder(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	g := r.Gauge("b.gauge")
	h := r.Histogram("c.hist")
	c.Add(3)
	g.Set(1.5)
	h.Observe(7)
	if r.Counter("a.count") != c || r.Gauge("b.gauge") != g || r.Histogram("c.hist") != h {
		t.Fatal("get-or-create must return the same metric")
	}
	wantCols := []string{"a.count", "b.gauge",
		"c.hist.count", "c.hist.mean", "c.hist.p50", "c.hist.p90", "c.hist.p99", "c.hist.max"}
	cols := r.Columns()
	if len(cols) != len(wantCols) {
		t.Fatalf("Columns = %v, want %v", cols, wantCols)
	}
	for i := range cols {
		if cols[i] != wantCols[i] {
			t.Errorf("Columns[%d] = %q, want %q", i, cols[i], wantCols[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("a.count")
}

func TestTraceWriteJSON(t *testing.T) {
	var tr Trace
	tr.ProcessName(0, "window")
	tr.ThreadName(0, 2, "slot 2")
	tr.Complete(0, 2, "seq 0", 1, 4, map[string]any{"pc": 7})
	tr.Complete(0, 2, "seq 9", 5, 0, nil) // zero dur clamps to 1
	tr.Instant(0, 2, "invalidate", 3, nil)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[3].Dur != 1 {
		t.Errorf("zero-duration slice not clamped: dur=%d", doc.TraceEvents[3].Dur)
	}
	if doc.TraceEvents[4].Phase != "i" || doc.TraceEvents[4].Scope != "t" {
		t.Errorf("instant event malformed: %+v", doc.TraceEvents[4])
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer("a", "b")
	pt.Begin(0)
	pt.Begin(1)
	pt.End()
	bd := pt.Breakdown()
	if len(bd) != 2 || bd[0].Name != "a" || bd[1].Name != "b" {
		t.Fatalf("breakdown = %+v", bd)
	}
	var frac float64
	for _, s := range bd {
		if s.Total < 0 {
			t.Errorf("negative total for %s", s.Name)
		}
		frac += s.Frac
	}
	if frac != 0 && math.Abs(frac-1) > 1e-9 {
		t.Errorf("fractions sum to %g", frac)
	}
}
