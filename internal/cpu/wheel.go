package cpu

import "valuespec/internal/trace"

// This file holds the allocation-free data structures of the steady-state
// simulation loop (see docs/PERFORMANCE.md): the timing wheel that files
// future events by cycle, the window-indexed bitset that holds one
// invalidation-wave step's producers, and the ring-buffer deque of records
// awaiting replay. All of them reach a high-water capacity during warmup and
// then recycle their storage, so a pipeline in steady state performs no heap
// allocations per cycle.

// ---------------------------------------------------------------------------
// Timing wheel

// wheelNominalSlots is the initial (nominal) horizon of a timing wheel. The
// paper's latency variables are single-digit cycles, so 64 slots cover every
// preset with a single power-of-two ring; models with larger latencies grow
// the wheel on first use (wheel.grow), after which scheduling is
// allocation-free again.
const wheelNominalSlots = 64

// wheel is a calendar queue over future cycles: slot c&mask holds the events
// scheduled for absolute cycle c. The invariant that makes a plain ring
// sufficient is that every schedule targets a cycle less than len(slots)
// ahead of the current one — schedule grows the ring when a longer latency
// shows up — and that take drains slot c&mask during cycle c, so a slot is
// always empty when a future cycle hashes onto it.
//
// Drained slot slices keep their capacity and are reused in place, which is
// what makes steady-state scheduling allocation-free.
type wheel[T any] struct {
	slots [][]T
	when  []int64 // absolute cycle of each non-empty slot (for grow)
	mask  int64

	scheduled int64 // events scheduled over the run
	recycled  int64 // non-empty drains whose slice capacity was reused
	grows     int64 // ring doublings (latency exceeded the horizon)
}

// newWheel returns a wheel with size slots; size must be a power of two.
func newWheel[T any](size int) wheel[T] {
	return wheel[T]{
		slots: make([][]T, size),
		when:  make([]int64, size),
		mask:  int64(size - 1),
	}
}

// reset empties the wheel for a new run, keeping the capacity of its slot
// slices. A ring that grew past the nominal horizon is rebuilt at it, so the
// new run grows it exactly when a fresh wheel would.
func (w *wheel[T]) reset() {
	if len(w.slots) != wheelNominalSlots {
		*w = newWheel[T](wheelNominalSlots)
		return
	}
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.scheduled, w.recycled, w.grows = 0, 0, 0
}

// schedule files ev for cycle at; now is the current cycle. at must satisfy
// now <= at (events in the past are a modeling bug and would be lost).
func (w *wheel[T]) schedule(now, at int64, ev T) {
	if at-now >= int64(len(w.slots)) {
		w.grow(at - now)
	}
	i := at & w.mask
	if len(w.slots[i]) == 0 {
		w.when[i] = at
		if cap(w.slots[i]) > 0 {
			w.recycled++
		}
	}
	w.slots[i] = append(w.slots[i], ev)
	w.scheduled++
}

// take drains and returns the events scheduled for cycle c. The returned
// slice is the slot's backing array: it is valid until the next schedule that
// hashes onto the same slot, which the wheel invariant defers for a full
// revolution.
func (w *wheel[T]) take(c int64) []T {
	i := c & w.mask
	s := w.slots[i]
	if len(s) == 0 {
		return nil
	}
	w.slots[i] = s[:0]
	return s
}

// grow doubles the ring until delta cycles ahead fit, rehoming pending slots
// by their absolute cycle. Pending cycles span less than the old size, so
// they cannot collide in the larger ring.
func (w *wheel[T]) grow(delta int64) {
	size := len(w.slots)
	for int64(size) <= delta {
		size *= 2
	}
	slots := make([][]T, size)
	when := make([]int64, size)
	mask := int64(size - 1)
	for i, s := range w.slots {
		if len(s) > 0 {
			j := w.when[i] & mask
			slots[j], when[j] = s, w.when[i]
		}
	}
	w.slots, w.when, w.mask = slots, when, mask
	w.grows++
}

// ---------------------------------------------------------------------------
// Wave sets

// waveSet is the producer set of one invalidation-wave step: a bitset over
// the ring slots of the window plus the list of marked slots (the seed of the
// consumer-list walk, and the clear list). Membership is by ring slot; the
// pipeline's waveAges array records the age each slot was marked with, so a
// consumer tests "is MY producer in the wave" as
//
//	set.has(o.prodIdx) && p.waveAges[o.prodIdx] == o.prodAge
//
// which is exact membership by age: an age uniquely identifies an entry, an
// entry's ring slot is fixed for its lifetime, and the age guard rejects
// marks that belong to a different occupant of the slot.
//
// Sets are pooled on the pipeline (getWaveSet/putWaveSet) and cleared by
// walking idxs, so waves allocate nothing in steady state.
type waveSet struct {
	bits []uint64
	idxs []int
}

func newWaveSet(window int) *waveSet {
	return &waveSet{bits: make([]uint64, (window+63)/64)}
}

func (w *waveSet) add(idx int) {
	w.bits[idx>>6] |= 1 << (uint(idx) & 63)
	w.idxs = append(w.idxs, idx)
}

func (w *waveSet) has(idx int) bool {
	return w.bits[idx>>6]&(1<<(uint(idx)&63)) != 0
}

func (w *waveSet) clear() {
	for _, idx := range w.idxs {
		w.bits[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	w.idxs = w.idxs[:0]
}

// getWaveSet returns a cleared set, reusing a pooled one when available.
func (p *Pipeline) getWaveSet() *waveSet {
	if n := len(p.wavePool); n > 0 {
		w := p.wavePool[n-1]
		p.wavePool = p.wavePool[:n-1]
		p.waveSetReuses++
		return w
	}
	return newWaveSet(len(p.entries))
}

// putWaveSet clears w and returns it to the pool.
func (p *Pipeline) putWaveSet(w *waveSet) {
	w.clear()
	p.wavePool = append(p.wavePool, w)
}

// mark adds e to the wave set and records its age for the slot-reuse guard.
func (p *Pipeline) mark(w *waveSet, e *entry) {
	w.add(e.idx)
	p.waveAges[e.idx] = e.age
}

// inWave reports whether the producer identified by (ring slot, age) is in
// the wave set.
func (p *Pipeline) inWave(w *waveSet, idx int, age int64) bool {
	return w.has(idx) && p.waveAges[idx] == age
}

// ---------------------------------------------------------------------------
// Replay deque

// recDeque is a ring buffer of trace records, the replay queue that squashes
// and i-cache misses push re-dispatched instructions onto. Records enter and
// leave at the front, both in O(1), so a complete-invalidation squash of the
// whole window costs one push per squashed entry.
type recDeque struct {
	buf  []trace.Record // power-of-two capacity
	head int            // index of the front element
	n    int
}

func (d *recDeque) len() int { return d.n }

func (d *recDeque) grow() {
	size := 2 * len(d.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]trace.Record, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = buf, 0
}

func (d *recDeque) pushFront(rec trace.Record) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = rec
	d.n++
}

// popFrontRef pops the front record, returning a pointer into the deque's
// buffer. The slot is valid only until the next push; callers copy what they
// keep (dispatch copies into the window entry) before mutating the deque.
func (d *recDeque) popFrontRef() *trace.Record {
	rec := &d.buf[d.head]
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return rec
}
