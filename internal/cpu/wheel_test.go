package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/emu"
	"valuespec/internal/trace"
)

// ---------------------------------------------------------------------------
// Timing wheel

func TestWheelScheduleTake(t *testing.T) {
	w := newWheel[int](8)
	// Interleave schedules across the horizon, including several events on
	// one cycle and a slot that wraps around the ring.
	w.schedule(0, 3, 30)
	w.schedule(0, 3, 31)
	w.schedule(0, 5, 50)
	want := map[int64][]int{3: {30, 31}, 5: {50}, 8: {80}}
	for c := int64(0); c <= 10; c++ {
		if c == 1 {
			// Slot 8&7 == 0 was drained during cycle 0; a full revolution
			// later it may be reused.
			w.schedule(1, 8, 80)
		}
		got := w.take(c)
		if !reflect.DeepEqual(append([]int(nil), got...), want[c]) &&
			!(len(got) == 0 && len(want[c]) == 0) {
			t.Fatalf("cycle %d: got %v want %v", c, got, want[c])
		}
	}
	if w.scheduled != 4 {
		t.Fatalf("scheduled = %d, want 4", w.scheduled)
	}
	if w.grows != 0 {
		t.Fatalf("grows = %d, want 0", w.grows)
	}
	// Re-scheduling onto a drained slot reuses its capacity.
	w.schedule(10, 11, 1)
	if w.recycled == 0 {
		t.Fatal("recycled = 0 after reusing a drained slot")
	}
	if got := w.take(11); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("take(11) = %v, want [1]", got)
	}
}

func TestWheelGrowRehomes(t *testing.T) {
	w := newWheel[int](4)
	// Fill several slots, then schedule past the horizon so the ring must
	// double with events pending; they must surface on their original cycles.
	w.schedule(0, 1, 10)
	w.schedule(0, 2, 20)
	w.schedule(0, 3, 30)
	w.schedule(0, 9, 90) // delta 9 >= 4: grows to 16 slots
	if w.grows != 1 {
		t.Fatalf("grows = %d, want 1", w.grows)
	}
	if len(w.slots) != 16 {
		t.Fatalf("len(slots) = %d, want 16", len(w.slots))
	}
	want := map[int64][]int{1: {10}, 2: {20}, 3: {30}, 9: {90}}
	for c := int64(0); c <= 9; c++ {
		got := w.take(c)
		if len(got) == 0 && len(want[c]) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]int(nil), got...), want[c]) {
			t.Fatalf("cycle %d after grow: got %v want %v", c, got, want[c])
		}
	}
}

// TestWheelRandomMatchesMap drives a wheel and a cycle-keyed map with the
// same random schedule/drain sequence and checks they agree on every cycle.
func TestWheelRandomMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	w := newWheel[int](8)
	ref := map[int64][]int{}
	now := int64(0)
	for i := 0; i < 5000; i++ {
		// Mostly short latencies; occasionally far beyond the horizon.
		delta := int64(r.Intn(6))
		if r.Intn(50) == 0 {
			delta = int64(64 + r.Intn(200))
		}
		at := now + delta
		w.schedule(now, at, i)
		ref[at] = append(ref[at], i)

		got := w.take(now)
		if want := ref[now]; !reflect.DeepEqual(append([]int(nil), got...), want) &&
			!(len(got) == 0 && len(want) == 0) {
			t.Fatalf("cycle %d: wheel %v map %v", now, got, want)
		}
		delete(ref, now)
		now++
	}
	// Drain the tail.
	for c := now; len(ref) > 0; c++ {
		got := w.take(c)
		if want := ref[c]; !reflect.DeepEqual(append([]int(nil), got...), want) &&
			!(len(got) == 0 && len(want) == 0) {
			t.Fatalf("tail cycle %d: wheel %v map %v", c, got, want)
		}
		delete(ref, c)
	}
	if w.grows == 0 {
		t.Fatal("random schedule never grew the wheel; long-latency path untested")
	}
}

// ---------------------------------------------------------------------------
// Wave sets

func TestWaveSetAddHasClear(t *testing.T) {
	w := newWaveSet(130) // 3 words, including a partial one
	for _, idx := range []int{0, 63, 64, 127, 129} {
		if w.has(idx) {
			t.Fatalf("has(%d) before add", idx)
		}
		w.add(idx)
		if !w.has(idx) {
			t.Fatalf("!has(%d) after add", idx)
		}
	}
	w.clear()
	for _, idx := range []int{0, 63, 64, 127, 129} {
		if w.has(idx) {
			t.Fatalf("has(%d) after clear", idx)
		}
	}
	if len(w.idxs) != 0 {
		t.Fatalf("idxs not reset: %v", w.idxs)
	}
}

func TestWaveSetPool(t *testing.T) {
	p, err := New(Config8x48(), nil, &trace.SliceSource{})
	if err != nil {
		t.Fatal(err)
	}
	a := p.getWaveSet()
	a.add(7)
	p.putWaveSet(a)
	b := p.getWaveSet()
	if b != a {
		t.Fatal("pool did not return the released set")
	}
	if b.has(7) || len(b.idxs) != 0 {
		t.Fatal("pooled set not cleared")
	}
	if p.waveSetReuses != 1 {
		t.Fatalf("waveSetReuses = %d, want 1", p.waveSetReuses)
	}
}

// ---------------------------------------------------------------------------
// Replay deque

// TestRecDequeMatchesSlice model-checks the two operations the pipeline
// uses, pushFront and popFrontRef, against a slice, through several growths
// and wraparounds of the ring.
func TestRecDequeMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var d recDeque
	var ref []trace.Record
	pop := func(op int) {
		t.Helper()
		if got, want := d.popFrontRef().Seq, ref[0].Seq; got != want {
			t.Fatalf("op %d: popFrontRef = %d, want %d", op, got, want)
		}
		ref = ref[1:]
	}
	for i := 0; i < 20000; i++ {
		if r.Intn(2) == 0 || len(ref) == 0 {
			d.pushFront(trace.Record{Seq: int64(i)})
			ref = append([]trace.Record{{Seq: int64(i)}}, ref...)
		} else {
			pop(i)
		}
		if d.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", i, d.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop(-1)
	}
	if d.len() != 0 {
		t.Fatalf("drained deque has len %d", d.len())
	}
}

// ---------------------------------------------------------------------------
// Wheel growth in the pipeline

// TestEventWheelMatchesMap is the equivalence property behind the timing
// wheels at pipeline level: on random dependence DAGs under randomized
// latency variables — including equality latencies far beyond the wheel's
// nominal 64-slot horizon, which force the ring to grow and rehome its
// pending slots mid-run — the shipped pipeline must produce exactly the same
// event stream and byte-identical statistics as a reference whose wheels are
// sized past every latency from the start. The reference never grows a ring
// and gives each pending cycle its own slot for the whole run, so it behaves
// as a plain cycle-keyed map; TestWheelRandomMatchesMap checks the same
// property for a single wheel.
func TestEventWheelMatchesMap(t *testing.T) {
	const refSlots = 1024
	r := rand.New(rand.NewSource(4242))
	configs := []Config{flatMemConfig(Config4x24()), Config8x48()}
	invals := []core.InvalidationScheme{core.InvalidateParallel, core.InvalidateHierarchical, core.InvalidateComplete}

	run := func(cfg Config, m core.Model, recs []trace.Record, presize bool) (*Stats, eventStream, *Pipeline) {
		t.Helper()
		p, err := New(cfg, fcmSpec(m, confidence.Always{}), &trace.SliceSource{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		if presize {
			p.eqWheel = newWheel[eqEvent](refSlots)
			p.waveWheel = newWheel[*waveSet](refSlots)
			p.wbWheel = newWheel[wbEvent](refSlots)
		}
		var evs eventStream
		p.SetObserver(&evs)
		st, err := p.Run()
		if err != nil {
			t.Fatalf("Run (presized=%t): %v\nstats: %s", presize, err, st)
		}
		return st, evs, p
	}

	sawGrowth := false
	for trial := 0; trial < 8; trial++ {
		m, err := emu.New(genProgram(r), emu.WithBudget(2000))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(m, 0)
		long := trial%2 == 1
		model := randomLatencyModel(r, invals[trial%len(invals)], long)
		for ci, cfg := range configs {
			st, evs, p := run(cfg, model, recs, false)
			stRef, evsRef, ref := run(cfg, model, recs, true)
			if g := ref.eqWheel.grows + ref.waveWheel.grows + ref.wbWheel.grows; g != 0 {
				t.Fatalf("trial %d cfg %d: reference wheels grew %d times; raise refSlots", trial, ci, g)
			}
			if !reflect.DeepEqual(st, stRef) {
				t.Fatalf("trial %d cfg %d (lat %+v): stats diverged\nwheel:     %s\nreference: %s",
					trial, ci, model.Lat, st, stRef)
			}
			if i := firstDiff(evs, evsRef); i >= 0 {
				t.Fatalf("trial %d cfg %d: event %d diverged (wheel %d events, reference %d)\nwheel:     %+v\nreference: %+v",
					trial, ci, i, len(evs), len(evsRef), evs[i:min(i+1, len(evs))], evsRef[i:min(i+1, len(evsRef))])
			}
			sawGrowth = sawGrowth || (long && p.eqWheel.grows > 0)
		}
	}
	if !sawGrowth {
		t.Fatal("no trial grew the equality wheel; the long-latency growth path went untested")
	}
}
