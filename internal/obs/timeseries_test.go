package obs

import (
	"testing"
)

// The decimation tests run on a series of points, as the telemetry
// sampler's store is one.

func seriesPoints(s *Decimating[Point]) []Point { return s.All(nil) }

func TestTimeSeriesCapacityNeverExceeded(t *testing.T) {
	for _, capacity := range []int{4, 7, 32, 100} {
		s := NewDecimating[Point](capacity)
		for i := 0; i < 10000; i++ {
			s.Append(Point{X: int64(i), Y: float64(i)})
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
	s := NewDecimating[Point](8)
	const n = 5000
	for i := 0; i < n; i++ {
		s.Append(Point{X: int64(i * 3), Y: float64(i)})

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
	s := NewDecimating[Point](16)
	const n = 4096
	for i := 0; i < n; i++ {
		s.Append(Point{X: int64(i), Y: float64(i)})
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

// TestTimeSeriesNoAllocAfterConstruction pins the store's allocation
// contract: storage grows by doubling up to the capacity and never past it,
// and once the store is full Append allocates nothing, however long the run.
func TestTimeSeriesNoAllocAfterConstruction(t *testing.T) {
	for _, capacity := range []int{4, 32, 100} {
		s := NewDecimating[Point](capacity)
		if cap(s.items) != 0 {
			t.Fatalf("cap %d: construction allocated %d items", capacity, cap(s.items))
		}
		var x int64
		for ; x < int64(capacity); x++ {
			s.Append(Point{X: x, Y: 1})
			if c := cap(s.items); c > s.bodyCap() {
				t.Fatalf("cap %d: storage grew to %d items, past the body's %d", capacity, c, s.bodyCap())
			}
		}
		if c := cap(s.items); c != s.bodyCap() {
			t.Fatalf("cap %d: storage holds %d items after %d appends, want it full at %d", capacity, c, x, s.bodyCap())
		}
		allocs := testing.AllocsPerRun(2000, func() {
			s.Append(Point{X: x, Y: 1})
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
