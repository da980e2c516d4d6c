package main

import (
	"math"
	"testing"
	"time"

	"valuespec/internal/obs"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so sorting is exercised
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		ok     bool
		value  float64
		beyond int
	}{
		{19, 0.5, false, 10, 9},
		{20, 0.5, true, 10, 10},
		{99, 0.9, false, 90, 9},
		{100, 0.9, true, 90, 10},
		{999, 0.99, false, 990, 9},
		{1000, 0.99, true, 990, 10},
		{1000, 0.999, false, 999, 1},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.p)
		if got.OK != c.ok || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("percentile(n=%d, p=%g) = %+v, want ok=%t value=%g beyond=%d",
				c.n, c.p, got, c.ok, c.value, c.beyond)
		}
	}
	if got := percentile(nil, 0.5); got.OK {
		t.Errorf("percentile of no samples reported %+v", got)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
}

func span(a, b int64) obs.Span { return obs.Span{Start: a, End: b} }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span(0, 100)
	cases := []struct {
		kids []obs.Span
		want time.Duration
	}{
		{nil, 100},
		{[]obs.Span{span(10, 30)}, 80},
		// Overlapping children count once: [10,40) covers 30.
		{[]obs.Span{span(10, 30), span(20, 40)}, 70},
		// Children sticking out are clipped to the parent: [0,5) and [90,100).
		{[]obs.Span{span(-5, 5), span(90, 120)}, 85},
		// Nested and disjoint together: [10,40) + [50,60) + [90,100).
		{[]obs.Span{span(20, 40), span(10, 30), span(50, 60), span(25, 35), span(90, 200)}, 50},
		// A child covering everything leaves no self time.
		{[]obs.Span{span(-1, 101)}, 0},
		// Children outside the parent are ignored.
		{[]obs.Span{span(100, 110), span(-10, 0)}, 100},
	}
	for i, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("case %d: selfTime = %d, want %d", i, got, c.want)
		}
	}
}

// A server that stalls on one request must be charged, on every request
// due during the stall, for the time from that request's due time.
func TestOpenLoopChargesStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		n        = 40
		interval = time.Millisecond
		stalled  = 5
		stall    = 30 * time.Millisecond
	)
	start := time.Now().Add(5 * time.Millisecond)
	var stallEnd time.Time
	out := openLoop(start, n, interval, 1, func(i int) time.Time {
		if i == stalled {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		return time.Now()
	})
	charged := 0
	for i, o := range out {
		if want := start.Add(time.Duration(i) * interval); !o.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, o.due, want)
		}
		if o.lag < 0 {
			t.Errorf("request %d: negative lag %v", i, o.lag)
		}
		if i > stalled && o.due.Before(stallEnd) {
			charged++
			if lat := o.at.Sub(o.due); lat < stallEnd.Sub(o.due) {
				t.Errorf("request %d due during the stall: latency %v < %v (stall end - due)", i, lat, stallEnd.Sub(o.due))
			}
		}
	}
	if charged < 20 {
		t.Fatalf("only %d requests fell due during a %v stall at %v intervals", charged, stall, interval)
	}
}

func TestCPUPerOpCountsOnlyTheWindow(t *testing.T) {
	w := window{from: usage{cpu: time.Second}, to: usage{cpu: 3 * time.Second}}
	if got := w.cpuPerOp(4); got != 500000 {
		t.Errorf("cpuPerOp = %g us, want 500000", got)
	}
	if got := w.cpuPerOp(0); got != 0 {
		t.Errorf("cpuPerOp with no ops = %g", got)
	}

	burn := func(d time.Duration) {
		u := readUsage()
		for readUsage().cpu-u.cpu < d {
		}
	}
	burn(200 * time.Millisecond) // before the window
	from := readUsage()
	burn(20 * time.Millisecond)
	to := readUsage()
	burn(200 * time.Millisecond) // after the window
	got := window{from, to}.cpu()
	if got < 20*time.Millisecond || got > 150*time.Millisecond {
		t.Errorf("window CPU = %v, want about 20ms: work outside the window leaked in", got)
	}
	if per := (window{from, to}).cpuPerOp(2); math.Abs(per-float64(got.Microseconds())/2) > 1 {
		t.Errorf("cpuPerOp(2) = %g us for %v", per, got)
	}
}

func TestSetupNoiseLeavesOutTheGapsBetweenRepetitions(t *testing.T) {
	at := func(s, cpu, steal, ticks int) usage {
		return usage{wall: time.Unix(int64(s), 0), cpu: time.Duration(cpu) * time.Second,
			steal: uint64(steal), hostTick: uint64(ticks), minflt: int64(100 * s)}
	}
	// Two one-second repetitions with a 10 s cold start between them.
	reps := []window{{at(0, 0, 0, 0), at(1, 1, 10, 200)}, {at(11, 5, 500, 2200), at(12, 6, 530, 2400)}}
	d := diagOf(reps)
	if d.WallS != 2 || d.CPUS != 2 || d.MinorFlt != 200 {
		t.Errorf("diagOf = %+v, want 2 s wall, 2 s CPU, 200 faults", d)
	}
	if want := 40.0 / 400; math.Abs(d.StealFrac-want) > 1e-12 {
		t.Errorf("steal share = %g, want %g (ticks of the repetitions only)", d.StealFrac, want)
	}
}

func TestSweepCountRoundsUpToWholeSweeps(t *testing.T) {
	for secs, want := range map[int]int{1: 1, 10: 1, 11: 2, 15: 2, 20: 2, 25: 3, 60: 6} {
		if got := sweepCount(time.Duration(secs)*time.Second, 10*time.Second); got != want {
			t.Errorf("sweepCount(%d s, 10 s) = %d, want %d", secs, got, want)
		}
	}
	if got := sweepCount(20*time.Second, 7*time.Second); got != 3 {
		t.Errorf("sweepCount(20 s, 7 s) = %d, want 3", got)
	}
}
