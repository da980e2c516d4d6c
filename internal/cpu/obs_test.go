package cpu

import (
	"testing"

	"valuespec/internal/core"
	"valuespec/internal/trace"
)

func TestRingLogOverwriteOldest(t *testing.T) {
	l := NewRingLog(3)
	for i := 0; i < 5; i++ {
		l.Observe(Event{Cycle: int64(i), Seq: int64(i)})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", l.Dropped())
	}
	evs := l.EventSlice()
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first)", i, evs[i].Seq, want)
		}
	}
	if got := l.BySeq(3); len(got) != 1 || got[0].Seq != 3 {
		t.Errorf("BySeq(3) = %v", got)
	}
	if got := l.BySeq(0); got != nil {
		t.Errorf("BySeq(0) returned overwritten events: %v", got)
	}
}

func TestEventLogBySeqIndexed(t *testing.T) {
	l := &EventLog{}
	for i := 0; i < 6; i++ {
		l.Observe(Event{Seq: int64(i % 2), Cycle: int64(i)})
	}
	evs := l.BySeq(1)
	if len(evs) != 3 {
		t.Fatalf("BySeq(1) returned %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Errorf("BySeq events out of order: %v", evs)
		}
	}
	if l.Dropped() != 0 {
		t.Errorf("EventLog.Dropped = %d, want 0", l.Dropped())
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &EventLog{}, NewRingLog(8)
	o := Tee(nil, a, nil, b)
	o.Observe(Event{Seq: 42})
	if len(a.Events) != 1 || b.Len() != 1 {
		t.Errorf("tee did not reach both observers: %d, %d", len(a.Events), b.Len())
	}
	// A single live observer is returned unwrapped.
	if Tee(nil, a) != Observer(a) {
		t.Error("Tee with one live observer should return it directly")
	}
}

// TestRingLogMatchesEventLog runs the same simulation under both observers
// and checks the ring's tail equals the full log's tail.
func TestRingLogMatchesEventLog(t *testing.T) {
	run := func(o Observer) *Stats {
		p, err := New(flatMemConfig(Config8x48()), nil, &trace.SliceSource{Records: chainN(30)})
		if err != nil {
			t.Fatal(err)
		}
		p.SetObserver(o)
		st, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := &EventLog{}
	ring := NewRingLog(16)
	st1 := run(full)
	st2 := run(ring)
	if st1.Cycles != st2.Cycles {
		t.Fatalf("observer changed timing: %d vs %d cycles", st1.Cycles, st2.Cycles)
	}
	tail := full.Events[len(full.Events)-16:]
	got := ring.EventSlice()
	if int64(len(full.Events)-16) != ring.Dropped() {
		t.Errorf("Dropped = %d, want %d", ring.Dropped(), len(full.Events)-16)
	}
	for i := range tail {
		if tail[i] != got[i] {
			t.Errorf("tail event %d: ring %+v != log %+v", i, got[i], tail[i])
		}
	}
}

// TestMetricsReconcileSmall checks that summed interval deltas match the
// final Stats counters on a speculative run with a tiny interval, and that
// the per-cycle and per-retirement histograms saw every cycle and
// instruction.
func TestMetricsReconcileSmall(t *testing.T) {
	spec := &SpecOptions{
		Enabled:    true,
		Model:      core.Great(),
		Predictor:  &scriptedPredictor{preds: map[int]int64{}},
		Confidence: &scriptedConfidence{conf: map[int]bool{}},
	}
	p, err := New(flatMemConfig(Config8x48()), spec, &trace.SliceSource{Records: chainN(30)})
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTelemetry(7, 1<<10)
	p.SetTelemetry(tl)
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkColumnsReconcile(t, tl, p)
	reg := tl.Registry()
	occ := reg.Histogram("window.occupancy")
	if int64(occ.Count()) != st.Cycles {
		t.Errorf("occupancy samples %d != cycles %d", occ.Count(), st.Cycles)
	}
	if occ.Sum() != st.OccupancySum {
		t.Errorf("occupancy histogram sum %d != OccupancySum %d", occ.Sum(), st.OccupancySum)
	}
	ret := reg.Histogram("retire.latency")
	if int64(ret.Count()) != st.Retired {
		t.Errorf("retire latency samples %d != retired %d", ret.Count(), st.Retired)
	}
	slots := reg.Histogram("issue.slots_used")
	if slots.Sum() != st.Issues {
		t.Errorf("issue-slot histogram sum %d != issues %d", slots.Sum(), st.Issues)
	}
	if got := reg.Counter("retired").Value(); got != st.Retired {
		t.Errorf("registry run total retired = %d, want %d", got, st.Retired)
	}
}

// TestMetricsObserverIndependence checks that installing the instrument and
// the phase timer does not perturb the simulated timing.
func TestMetricsObserverIndependence(t *testing.T) {
	run := func(tl *Telemetry) *Stats {
		p, err := New(flatMemConfig(Config4x24()), nil, &trace.SliceSource{Records: chainN(30)})
		if err != nil {
			t.Fatal(err)
		}
		p.SetTelemetry(tl)
		if tl != nil {
			p.EnablePhaseStats()
		}
		st, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(nil)
	instr := run(NewTelemetry(5, 8))
	if *plain != *instr {
		t.Errorf("instrumentation changed results: %+v vs %+v", plain, instr)
	}
}
