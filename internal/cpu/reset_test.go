package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/mem"
	"valuespec/internal/trace"
)

// TestPipelineResetMatchesNew checks that recycling a pipeline is invisible
// in its results. One pipeline is Reset through a seeded sequence of runs
// that changes the window size, width, cache geometry, branch history,
// model and setting from run to run, and each run must produce the Stats,
// error and event stream of a fresh New on the same input. The sequence
// grows a wheel, squashes through the replay deque under complete
// invalidation, stops a run at MaxCycles with work still pending, and
// attaches observers and metrics to some runs, which the next run must
// leave untouched.
func TestPipelineResetMatchesNew(t *testing.T) {
	c24 := flatMemConfig(Config4x24())
	c48 := Config8x48()
	c96 := Config16x96()
	c130 := Config{IssueWidth: 12, WindowSize: 130}
	small := Config8x48()
	small.Mem = mem.DefaultHierarchyConfig()
	small.Mem.L1I.SizeBytes = 4 << 10
	small.Mem.L1D.SizeBytes = 4 << 10
	small.Mem.L2.SizeBytes = 64 << 10
	small.BranchHistoryBits = 10
	stopped := c48
	stopped.MaxCycles = 400

	resetting := func(m core.Model, u UpdateTiming) func() *SpecOptions {
		return func() *SpecOptions {
			s := fcmSpec(m, confidence.NewResetting(10, 2))
			s.Update = u
			return s
		}
	}
	always := func(edit func(m *core.Model)) func() *SpecOptions {
		m := core.Great()
		edit(&m)
		return func() *SpecOptions { return fcmSpec(m, confidence.Always{}) }
	}
	base := func() *SpecOptions { return nil }
	long := core.Great()
	long.Lat.ExecEqVerify = wheelNominalSlots + 6
	long.Lat.ExecEqInvalidate = wheelNominalSlots + 30
	complete := func(m *core.Model) { m.Invalidation = core.InvalidateComplete }

	runs := []struct {
		name             string
		cfg              Config
		spec             func() *SpecOptions
		observe, metrics bool
	}{
		{"great D/R 8/48", c48, resetting(core.Great(), UpdateDelayed), true, true},
		{"base 8/48", c48, base, false, false},
		{"long latency 16/96", c96, func() *SpecOptions { return fcmSpec(long, confidence.Always{}) }, true, false},
		{"complete invalidation 4/24", c24, always(complete), true, false},
		{"good I/O 12/130", c130, func() *SpecOptions { return fcmSpec(core.Good(), confidence.Oracle{}) }, false, true},
		{"super I/R small caches", small, resetting(core.Super(), UpdateImmediate), true, false},
		{"stopped at MaxCycles", stopped, always(complete), true, true},
		{"hierarchical 16/96", c96, always(func(m *core.Model) { m.Invalidation = core.InvalidateHierarchical }), false, false},
		{"base 4/24", c24, base, true, false},
		{"complete invalidation 12/130", c130, always(complete), true, true},
		{"great D/R 8/48 again", c48, resetting(core.Great(), UpdateDelayed), true, false},
	}

	r := rand.New(rand.NewSource(2024))
	var reused Pipeline
	var lastEvents *eventStream
	var lastMetrics *Telemetry
	grew, squashed, stoppedEarly := false, false, false
	for i, run := range runs {
		recs := wakeupRecs(t, r.Int63(), 1500+r.Intn(1000))
		var prevEvents int
		var prevSamples int64
		if lastEvents != nil {
			prevEvents = len(*lastEvents)
		}
		if lastMetrics != nil {
			prevSamples = lastMetrics.bounds.Appended()
		}

		type outcome struct {
			st  Stats
			err error
			evs *eventStream
			m   *Telemetry
		}
		exec := func(p *Pipeline) outcome {
			var o outcome
			if run.observe {
				o.evs = new(eventStream)
				p.SetObserver(o.evs)
			}
			if run.metrics {
				o.m = NewTelemetry(100, 1<<10)
				p.SetTelemetry(o.m)
			}
			st, err := p.Run()
			o.st, o.err = *st, err
			return o
		}
		fresh, err := New(run.cfg, run.spec(), &trace.SliceSource{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		want := exec(fresh)
		if err := reused.Reset(run.cfg, run.spec(), &trace.SliceSource{Records: recs}); err != nil {
			t.Fatal(err)
		}
		got := exec(&reused)

		if !reflect.DeepEqual(got.st, want.st) {
			t.Fatalf("run %d (%s): stats diverged\nreset: %s\nnew:   %s", i, run.name, &got.st, &want.st)
		}
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Fatalf("run %d (%s): error %v after Reset, %v from New", i, run.name, got.err, want.err)
		}
		if run.observe {
			if j := firstDiff(*got.evs, *want.evs); j >= 0 {
				t.Fatalf("run %d (%s): event %d diverged (reset %d events, new %d)",
					i, run.name, j, len(*got.evs), len(*want.evs))
			}
		}
		// The sim.* series describe the simulated machine; the events.*
		// columns count the simulator's recycled storage and may differ.
		if run.metrics && !reflect.DeepEqual(got.m.Snapshot(), want.m.Snapshot()) {
			t.Fatalf("run %d (%s): telemetry after Reset differs from New", i, run.name)
		}
		// Reset keeps nothing of the last run: its observer and metrics
		// saw none of this one.
		if lastEvents != nil && len(*lastEvents) != prevEvents {
			t.Fatalf("run %d (%s): the previous run's observer received %d events",
				i, run.name, len(*lastEvents)-prevEvents)
		}
		if lastMetrics != nil && lastMetrics.bounds.Appended() != prevSamples {
			t.Fatalf("run %d (%s): the previous run's telemetry took %d samples",
				i, run.name, lastMetrics.bounds.Appended()-prevSamples)
		}
		lastEvents, lastMetrics = got.evs, got.m

		grew = grew || fresh.eqWheel.grows > 0
		squashed = squashed || want.st.CompleteSquashes > 0
		stoppedEarly = stoppedEarly || want.err != nil
	}
	// Guard the coverage the sequence is built for.
	if !grew || !squashed || !stoppedEarly {
		t.Fatalf("coverage: wheel grown %t, replay deque used %t, run stopped at MaxCycles %t",
			grew, squashed, stoppedEarly)
	}
}
