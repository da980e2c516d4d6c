package obs

import "sort"

// Point is one sample of a TimeSeries: an X coordinate (cycle number or
// elapsed milliseconds, whatever the producer samples on) and a value.
type Point struct {
	X int64   `json:"x"`
	Y float64 `json:"y"`
}

// Decimating is a fixed-capacity sequence that always spans the whole run.
// Storage is allocated once at construction; when the buffer fills, the
// sequence decimates itself in place — every other retained item is dropped
// and the acceptance stride doubles — so a long run keeps full temporal
// coverage at progressively coarser resolution instead of losing its head.
// The first and the most recently appended item are always retained, so
// both endpoints of the run survive any amount of decimation.
//
// Like Registry, a Decimating is single-goroutine; aggregation across
// goroutines goes through Clone/Merge of TimeSeries snapshots.
type Decimating[T any] struct {
	capacity int
	stride   int64 // appended items kept: indices ≡ 0 (mod stride)
	appended int64 // total items ever appended
	items    []T
	last     T    // most recent append, retained even when off-stride
	lastKept bool // last is items[len(items)-1]
}

// minSeriesCap is the floor on capacity: decimation needs headroom to halve.
const minSeriesCap = 4

// NewDecimating returns an empty sequence holding at most capacity retained
// items (clamped to a small minimum so decimation is meaningful).
func NewDecimating[T any](capacity int) *Decimating[T] {
	if capacity < minSeriesCap {
		capacity = minSeriesCap
	}
	return &Decimating[T]{
		capacity: capacity,
		stride:   1,
		items:    make([]T, 0, capacity),
	}
}

// bodyCap returns the decimated body's capacity: one slot of the configured
// capacity is reserved for the always-retained most recent item, so Len
// never exceeds Cap.
func (s *Decimating[T]) bodyCap() int { return s.capacity - 1 }

// Append records one item; it never allocates after construction.
func (s *Decimating[T]) Append(v T) {
	i := s.appended
	s.appended++
	s.last, s.lastKept = v, false
	if i%s.stride != 0 {
		return
	}
	if len(s.items) == s.bodyCap() {
		s.decimate()
		if i%s.stride != 0 {
			return
		}
	}
	s.items = append(s.items, v)
	s.lastKept = true
}

// decimate halves the retained resolution in place: every other item is
// dropped (keeping the even-indexed ones, so the first item survives) and
// the acceptance stride doubles.
func (s *Decimating[T]) decimate() {
	n := 0
	for i := 0; i < len(s.items); i += 2 {
		s.items[n] = s.items[i]
		n++
	}
	s.items = s.items[:n]
	s.stride *= 2
}

// Len returns the number of items All would return.
func (s *Decimating[T]) Len() int {
	if s.appended == 0 {
		return 0
	}
	if s.lastKept {
		return len(s.items)
	}
	return len(s.items) + 1
}

// Cap returns the configured capacity; Len never exceeds it.
func (s *Decimating[T]) Cap() int { return s.capacity }

// Stride returns how many appended items one retained item currently
// stands for (1 until the first decimation, then doubling).
func (s *Decimating[T]) Stride() int64 { return s.stride }

// Appended returns the total number of items ever appended.
func (s *Decimating[T]) Appended() int64 { return s.appended }

// First returns the earliest retained item (the first ever appended).
func (s *Decimating[T]) First() (T, bool) {
	if s.appended == 0 {
		var zero T
		return zero, false
	}
	return s.items[0], true
}

// Last returns the most recently appended item.
func (s *Decimating[T]) Last() (T, bool) {
	if s.appended == 0 {
		var zero T
		return zero, false
	}
	return s.last, true
}

// All appends the retained items, oldest first, to dst and returns it. The
// most recent append is included even if it fell between strides, so the
// sequence always ends at the run's true endpoint.
func (s *Decimating[T]) All(dst []T) []T {
	if s.appended == 0 {
		return dst
	}
	dst = append(dst, s.items...)
	if !s.lastKept {
		dst = append(dst, s.last)
	}
	return dst
}

// TimeSeries is a decimating sequence of points in ascending X order.
type TimeSeries struct{ Decimating[Point] }

// NewTimeSeries returns an empty series holding at most capacity retained
// points.
func NewTimeSeries(capacity int) *TimeSeries {
	return &TimeSeries{*NewDecimating[Point](capacity)}
}

// Append records one point. X coordinates must be non-decreasing.
func (s *TimeSeries) Append(x int64, y float64) { s.Decimating.Append(Point{X: x, Y: y}) }

// Points appends the retained points, in ascending X order, to dst.
func (s *TimeSeries) Points(dst []Point) []Point { return s.All(dst) }

// Merge folds every retained point of o into s, as if both series had
// observed one interleaved run: the union is taken in ascending X order
// (ties keep both, s's points first), then bounded back to s's capacity by
// dropping every other point while preserving both endpoints. As long as
// the union fits the capacity no points are dropped, which is what makes
// Merge associative below capacity.
func (s *TimeSeries) Merge(o *TimeSeries) {
	if o == nil || o.appended == 0 {
		return
	}
	merged := s.Points(nil)
	merged = o.Points(merged)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].X < merged[j].X })

	last := merged[len(merged)-1]
	for len(merged) > s.bodyCap() {
		n := 0
		for i := 0; i < len(merged); i += 2 {
			merged[n] = merged[i]
			n++
		}
		merged = merged[:n]
		s.stride *= 2
	}
	s.appended += o.appended
	s.items = append(s.items[:0], merged...)
	s.last = last
	s.lastKept = merged[len(merged)-1].X >= last.X
}

// Clone returns an independent deep copy of s.
func (s *TimeSeries) Clone() *TimeSeries {
	c := &TimeSeries{s.Decimating}
	c.items = append(make([]Point, 0, s.capacity), s.items...)
	return c
}

// SpecOutcomes is the four-quadrant speculation-outcome counter block of
// Sazeides' model: every confident prediction either drove speculation
// (used) or did not (unused), and was either correct or wrong. The four
// cells partition all predictions, so their sum must reconcile exactly
// with Predictions.
//
//   - CorrectUsed:   predicted correct, speculation used it — pure win.
//   - WrongUsed:     mispredicted and used — paid invalidation/reissue cost.
//   - CorrectUnused: correct but low-confidence — lost opportunity.
//   - WrongUnused:   wrong and not used — the confidence filter saved a squash.
type SpecOutcomes struct {
	Predictions   int64 `json:"predictions"`
	CorrectUsed   int64 `json:"correct_used"`
	WrongUsed     int64 `json:"wrong_used"`
	CorrectUnused int64 `json:"correct_unused"`
	WrongUnused   int64 `json:"wrong_unused"`
}

// Merge folds o's counts into s.
func (s *SpecOutcomes) Merge(o SpecOutcomes) {
	s.Predictions += o.Predictions
	s.CorrectUsed += o.CorrectUsed
	s.WrongUsed += o.WrongUsed
	s.CorrectUnused += o.CorrectUnused
	s.WrongUnused += o.WrongUnused
}

// Total returns the sum of the four quadrants.
func (s SpecOutcomes) Total() int64 {
	return s.CorrectUsed + s.WrongUsed + s.CorrectUnused + s.WrongUnused
}

// Reconciled reports whether the quadrants partition Predictions exactly.
func (s SpecOutcomes) Reconciled() bool { return s.Total() == s.Predictions }
