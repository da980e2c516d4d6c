// Command vsim runs one benchmark on one processor configuration under one
// speculative-execution model and prints the measured statistics.
//
// Usage:
//
//	vsim -bench compress                         # base processor
//	vsim -bench compress -model great            # Great model, I/R
//	vsim -bench gcc -model super -width 16 -window 96 -update D -oracle
//	vsim -bench compress -model great -metrics-out m.json -trace-out t.json
//	vsim -bench compress -phase-stats -cpuprofile cpu.pprof
//	vsim -list                                   # list benchmarks
//
// See docs/OBSERVABILITY.md for the metrics catalog, the trace-viewer
// workflow and the profiling flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
	"valuespec/internal/obsweb"
	"valuespec/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsim: ")
	var (
		benchName = flag.String("bench", "compress", "benchmark to run")
		modelName = flag.String("model", "", "speculative model (super, great, good); empty = base processor")
		width     = flag.Int("width", 8, "issue width")
		window    = flag.Int("window", 48, "instruction window size")
		scale     = flag.Int("scale", 0, "workload scale (0 = default)")
		update    = flag.String("update", "I", "predictor update timing: I (immediate) or D (delayed)")
		oracle    = flag.Bool("oracle", false, "use oracle confidence instead of resetting counters")
		traceN    = flag.Int("trace", 0, "print a pipeline timeline of the first N instructions")
		list      = flag.Bool("list", false, "list benchmarks and exit")

		metricsOut      = flag.String("metrics-out", "", "write the interval metrics table to this file and print the speculation-outcome breakdown: a .csv extension (any case) selects CSV, any other name means JSON")
		metricsInterval = flag.Int64("metrics-interval", 1000, "cycles per metrics sample")
		metricsCap      = flag.Int("metrics-cap", 4096, "max retained samples (at least 4); when full the table decimates to a coarser stride")
		traceOut        = flag.String("trace-out", "", "write a Chrome trace (chrome://tracing, Perfetto) of the run to this file")
		phaseStats      = flag.Bool("phase-stats", false, "print the wall-time breakdown of the simulator's pipeline stages")
		cpuProfile      = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile      = flag.String("memprofile", "", "write a heap profile to this file at exit")
		serveAddr       = flag.String("serve", "", "serve live observability on this address for the duration of the run (Prometheus /metrics, /progress, /healthz, /readyz, /debug/pprof/); port 0 picks a free one")
	)
	flag.Parse()

	if *list {
		for _, w := range bench.All() {
			fmt.Printf("%-9s %s (default scale %d)\n", w.Name, w.Description, w.DefaultScale)
		}
		return
	}

	w, err := bench.ByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	spec := harness.Spec{
		Workload: w,
		Scale:    *scale,
		Config:   cpu.Config{IssueWidth: *width, WindowSize: *window},
	}
	switch *update {
	case "I":
		spec.Setting.Update = cpu.UpdateImmediate
	case "D":
		spec.Setting.Update = cpu.UpdateDelayed
	default:
		log.Fatalf("bad -update %q, want I or D", *update)
	}
	spec.Setting.Oracle = *oracle
	if *modelName != "" {
		m, err := core.PresetByName(*modelName)
		if err != nil {
			log.Fatal(err)
		}
		spec.Model = &m
	}

	// Observability instrumentation. A nil *EventLog inside a non-nil
	// Observer interface would dodge Tee's nil filter, so only live
	// observers go in.
	var observers []cpu.Observer
	var evlog *cpu.EventLog
	if *traceN > 0 {
		evlog = &cpu.EventLog{}
		observers = append(observers, evlog)
	}
	var tracer *cpu.TraceRecorder
	if *traceOut != "" {
		tracer = cpu.NewTraceRecorder()
		observers = append(observers, tracer)
	}
	if len(observers) > 0 {
		spec.Observer = cpu.Tee(observers...)
	}
	if *metricsOut != "" {
		spec.Telemetry = cpu.NewTelemetry(*metricsInterval, *metricsCap)
	}
	spec.Phases = *phaseStats

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// Live observability: progress for this one spec plus, at completion,
	// the pipeline's own metrics registry merged into the served exposition.
	var progress *harness.Progress
	var obsrv *obsweb.Server
	if *serveAddr != "" {
		progress = harness.NewProgress(obs.NewSharedRegistry())
		obsrv = obsweb.New(obsweb.Config{
			Metrics:  progress.Registry(),
			Progress: func() any { return progress.Snapshot() },
		})
		if err := obsrv.Start(context.Background(), *serveAddr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serving observability on http://%s (/metrics /progress /progress/stream /healthz /readyz /debug/pprof/)\n", obsrv.Addr())
	}
	results, err := harness.SimulateBatch(context.Background(), []harness.Spec{spec}, progress)
	if err != nil {
		log.Fatal(err)
	}
	res := results[0]
	label := "base"
	if spec.Model != nil {
		label = fmt.Sprintf("%s %s", spec.Model.Name, spec.Setting)
	}
	fmt.Printf("%s on %s (%s):\n%s", w.Name, harness.ConfigName(spec.Config), label, res.Stats)

	if evlog != nil {
		fmt.Printf("pipeline timeline, first %d instructions (D dispatch, I issue, W write, M memory, V verify, X invalidate, B resolve, R retire):\n", *traceN)
		fmt.Print(harness.Timeline(evlog, *traceN))
	}
	if spec.Phases {
		fmt.Println("simulator wall time by stage:")
		for _, ps := range res.Phases {
			bar := strings.Repeat("#", int(ps.Frac*40+0.5))
			fmt.Printf("  %-10s %12v %5.1f%% %s\n", ps.Name, ps.Total.Round(time.Microsecond), 100*ps.Frac, bar)
		}
	}
	if spec.Telemetry != nil {
		writeMetrics(*metricsOut, spec.Telemetry)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d events -> %s (open in https://ui.perfetto.dev or chrome://tracing)\n",
			tracer.Len(), *traceOut)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if obsrv != nil {
		// Fold the (now quiescent) instrument's registry into the served
		// exposition so a final scrape sees the run's full distributions.
		// Merge adds its counter totals on top of the progress tracker's
		// own; Finish republishes (Set, not Add) right after, so the served
		// counters end exact.
		if spec.Telemetry != nil {
			progress.Registry().Merge(spec.Telemetry.Registry())
		}
		progress.Finish()
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := obsrv.Shutdown(ctx); err != nil {
			log.Printf("observability server shutdown: %v", err)
		}
	}
}

// writeMetrics writes the interval table as CSV or JSON by extension, then
// prints the speculation-outcome breakdown and the verify/invalidate
// latency summaries.
func writeMetrics(path string, tl *cpu.Telemetry) {
	t := report.Telemetry(tl)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		err = t.WriteCSV(f)
	} else {
		err = t.WriteJSON(f)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: %d rows every %d cycles", len(t.Rows), tl.Interval())
	if s := tl.Stride(); s > 1 {
		fmt.Printf(", decimated to 1 sample in %d (raise -metrics-cap for finer rows)", s)
	}
	fmt.Printf(" -> %s\n", path)
	snap := tl.Snapshot()
	out := snap.Outcomes
	if out.Predictions > 0 {
		pct := func(v int64) float64 { return 100 * float64(v) / float64(out.Predictions) }
		fmt.Printf("speculation outcomes (%d predictions):\n", out.Predictions)
		fmt.Printf("  correct, used     %12d  %5.1f%%\n", out.CorrectUsed, pct(out.CorrectUsed))
		fmt.Printf("  wrong, used       %12d  %5.1f%%  (invalidation + reissue cost)\n", out.WrongUsed, pct(out.WrongUsed))
		fmt.Printf("  correct, unused   %12d  %5.1f%%  (lost opportunity)\n", out.CorrectUnused, pct(out.CorrectUnused))
		fmt.Printf("  wrong, unused     %12d  %5.1f%%  (confidence saved)\n", out.WrongUnused, pct(out.WrongUnused))
	}
	for _, l := range []struct {
		name string
		s    cpu.LatencySummary
	}{
		{"verify latency", snap.VerifyLatency},
		{"invalidate latency", snap.InvalidateLatency},
	} {
		if l.s.Count == 0 {
			continue
		}
		fmt.Printf("  %-18s n=%d mean=%.1f p50=%.0f p99=%.0f max=%d cycles\n",
			l.name, l.s.Count, l.s.Mean, l.s.P50, l.s.P99, l.s.Max)
	}
}
