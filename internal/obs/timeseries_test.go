package obs

import (
	"testing"
)

func seriesPoints(s *TimeSeries) []Point { return s.Points(nil) }

func TestTimeSeriesCapacityNeverExceeded(t *testing.T) {
	for _, capacity := range []int{4, 7, 32, 100} {
		s := NewTimeSeries(capacity)
		for i := 0; i < 10000; i++ {
			s.Append(int64(i), float64(i))
			if s.Len() > s.Cap() {
				t.Fatalf("cap %d: after %d appends Len=%d exceeds Cap=%d",
					capacity, i+1, s.Len(), s.Cap())
			}
			if got := len(seriesPoints(s)); got != s.Len() {
				t.Fatalf("cap %d: Len()=%d but Points returned %d", capacity, s.Len(), got)
			}
		}
		if s.Appended() != 10000 {
			t.Fatalf("Appended=%d want 10000", s.Appended())
		}
	}
}

func TestTimeSeriesEndpointsPreserved(t *testing.T) {
	s := NewTimeSeries(8)
	const n = 5000
	for i := 0; i < n; i++ {
		s.Append(int64(i*3), float64(i))

		first, ok := s.First()
		if !ok || first.X != 0 {
			t.Fatalf("after %d appends First=%+v ok=%v, want X=0", i+1, first, ok)
		}
		last, ok := s.Last()
		if !ok || last.X != int64(i*3) {
			t.Fatalf("after %d appends Last=%+v ok=%v, want X=%d", i+1, last, ok, i*3)
		}
		pts := seriesPoints(s)
		if pts[0].X != 0 || pts[len(pts)-1].X != int64(i*3) {
			t.Fatalf("after %d appends Points endpoints [%d, %d], want [0, %d]",
				i+1, pts[0].X, pts[len(pts)-1].X, i*3)
		}
	}
}

func TestTimeSeriesPointsAscendingAndCoverage(t *testing.T) {
	s := NewTimeSeries(16)
	const n = 4096
	for i := 0; i < n; i++ {
		s.Append(int64(i), float64(i))
	}
	pts := seriesPoints(s)
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("points not strictly ascending at %d: %d then %d", i, pts[i-1].X, pts[i].X)
		}
	}
	// Decimation keeps points on a uniform stride: the largest gap between
	// retained points must stay within 2x the stride (the endpoint may sit
	// mid-stride).
	stride := s.Stride()
	for i := 1; i < len(pts); i++ {
		if gap := pts[i].X - pts[i-1].X; gap > 2*stride {
			t.Fatalf("gap %d at point %d exceeds 2*stride=%d", gap, i, 2*stride)
		}
	}
}

func TestTimeSeriesMergeAssociativeUnderCapacity(t *testing.T) {
	mk := func(xs ...int64) *TimeSeries {
		s := NewTimeSeries(64)
		for _, x := range xs {
			s.Append(x, float64(x)*0.5)
		}
		return s
	}
	a := mk(0, 10, 20, 30)
	b := mk(5, 15, 25)
	c := mk(2, 12, 22, 32, 42)

	// (a ⊔ b) ⊔ c
	left := a.Clone()
	left.Merge(b)
	left.Merge(c)
	// a ⊔ (b ⊔ c)
	bc := b.Clone()
	bc.Merge(c)
	right := a.Clone()
	right.Merge(bc)

	lp, rp := seriesPoints(left), seriesPoints(right)
	if len(lp) != len(rp) {
		t.Fatalf("associativity: %d vs %d points", len(lp), len(rp))
	}
	for i := range lp {
		if lp[i] != rp[i] {
			t.Fatalf("associativity: point %d differs: %+v vs %+v", i, lp[i], rp[i])
		}
	}
	if left.Appended() != right.Appended() {
		t.Fatalf("associativity: appended %d vs %d", left.Appended(), right.Appended())
	}
}

func TestTimeSeriesMergeRespectsCapacity(t *testing.T) {
	a := NewTimeSeries(8)
	b := NewTimeSeries(8)
	for i := 0; i < 1000; i++ {
		a.Append(int64(2*i), 1)
		b.Append(int64(2*i+1), 2)
	}
	a.Merge(b)
	if a.Len() > a.Cap() {
		t.Fatalf("after merge Len=%d exceeds Cap=%d", a.Len(), a.Cap())
	}
	pts := seriesPoints(a)
	if pts[0].X != 0 {
		t.Fatalf("merge lost first point: got X=%d", pts[0].X)
	}
	if pts[len(pts)-1].X != 1999 {
		t.Fatalf("merge lost last point: got X=%d", pts[len(pts)-1].X)
	}
	if a.Appended() != 2000 {
		t.Fatalf("merge Appended=%d want 2000", a.Appended())
	}
}

func TestTimeSeriesMergeIntoEmpty(t *testing.T) {
	a := NewTimeSeries(16)
	b := NewTimeSeries(16)
	for i := 0; i < 5; i++ {
		b.Append(int64(i), float64(i))
	}
	a.Merge(b)
	if a.Len() != 5 {
		t.Fatalf("Len=%d want 5", a.Len())
	}
	// Merging an empty series is a no-op.
	before := seriesPoints(a)
	a.Merge(NewTimeSeries(16))
	after := seriesPoints(a)
	if len(before) != len(after) {
		t.Fatalf("merge of empty changed length %d -> %d", len(before), len(after))
	}
}

func TestTimeSeriesCloneIndependent(t *testing.T) {
	s := NewTimeSeries(16)
	for i := 0; i < 10; i++ {
		s.Append(int64(i), float64(i))
	}
	c := s.Clone()
	s.Append(100, 100)
	if c.Len() != 10 {
		t.Fatalf("clone tracked appends to original: Len=%d", c.Len())
	}
	c.Append(200, 200)
	if last, _ := s.Last(); last.X != 100 {
		t.Fatalf("original tracked appends to clone: Last.X=%d", last.X)
	}
}

// TestTimeSeriesNoAllocAfterConstruction pins the store's allocation
// contract: storage grows by doubling up to the capacity and never past it,
// and once the store is full Append allocates nothing, however long the run.
func TestTimeSeriesNoAllocAfterConstruction(t *testing.T) {
	for _, capacity := range []int{4, 32, 100} {
		s := NewTimeSeries(capacity)
		if cap(s.items) != 0 {
			t.Fatalf("cap %d: construction allocated %d items", capacity, cap(s.items))
		}
		var x int64
		for ; x < int64(capacity); x++ {
			s.Append(x, 1)
			if c := cap(s.items); c > s.bodyCap() {
				t.Fatalf("cap %d: storage grew to %d items, past the body's %d", capacity, c, s.bodyCap())
			}
		}
		if c := cap(s.items); c != s.bodyCap() {
			t.Fatalf("cap %d: storage holds %d items after %d appends, want it full at %d", capacity, c, x, s.bodyCap())
		}
		allocs := testing.AllocsPerRun(2000, func() {
			s.Append(x, 1)
			x++
		})
		if allocs != 0 {
			t.Fatalf("cap %d: Append allocates %v allocs/op once the store is full", capacity, allocs)
		}
	}
}

func TestSpecOutcomes(t *testing.T) {
	a := SpecOutcomes{Predictions: 10, CorrectUsed: 4, WrongUsed: 1, CorrectUnused: 3, WrongUnused: 2}
	if !a.Reconciled() {
		t.Fatalf("expected reconciled: %+v total=%d", a, a.Total())
	}
	b := SpecOutcomes{Predictions: 5, CorrectUsed: 2, WrongUsed: 2, CorrectUnused: 0, WrongUnused: 1}
	a.Merge(b)
	if a.Predictions != 15 || a.Total() != 15 || !a.Reconciled() {
		t.Fatalf("merge broke reconciliation: %+v total=%d", a, a.Total())
	}
	a.WrongUnused++
	if a.Reconciled() {
		t.Fatalf("expected unreconciled after skew")
	}
}

func TestHistogramObserveN(t *testing.T) {
	h1 := NewHistogram()
	h2 := NewHistogram()
	vals := []int64{0, 3, 17, 1024, 99999}
	for _, v := range vals {
		for i := 0; i < 7; i++ {
			h1.Observe(v)
		}
		h2.ObserveN(v, 7)
	}
	h2.ObserveN(5, 0) // no-op
	if h1.Count() != h2.Count() || h1.Sum() != h2.Sum() ||
		h1.Min() != h2.Min() || h1.Max() != h2.Max() {
		t.Fatalf("ObserveN mismatch: count %d/%d sum %d/%d min %d/%d max %d/%d",
			h1.Count(), h2.Count(), h1.Sum(), h2.Sum(), h1.Min(), h2.Min(), h1.Max(), h2.Max())
	}
	for q := 0.0; q <= 1.0; q += 0.25 {
		if h1.Quantile(q) != h2.Quantile(q) {
			t.Fatalf("quantile %v mismatch: %v vs %v", q, h1.Quantile(q), h2.Quantile(q))
		}
	}
}
