// Command vsweep regenerates the paper's evaluation: Table 1 (benchmark
// characteristics), Fig. 3 (model speedups across configurations and
// predictor settings), Fig. 4 (prediction-accuracy breakdown), and the
// design-space ablations that the speculative-execution model makes
// expressible (latency sensitivity, verification/invalidation schemes,
// resolution policies, forwarding, predictors, confidence).
//
// Usage:
//
//	vsweep -table1
//	vsweep -fig3            # the full 3-configuration sweep (minutes)
//	vsweep -fig3 -quick     # 8/48 only
//	vsweep -fig4
//	vsweep -latency -verification -invalidation -resolution -forwarding \
//	       -predictors -confsweep
//	vsweep -all             # everything
//	vsweep -all -serve 127.0.0.1:9090   # + live /metrics, /progress, pprof
//	vsweep -fig3 -fig4 -submit http://127.0.0.1:9090   # on a vserved daemon
//
// The selected sections make one run: every distinct spec they ask for is
// simulated once, locally or, with -submit, as one job on a daemon. -serve
// exposes the run's live observability (Prometheus metrics, sweep progress
// as JSON and SSE, pprof) for its duration and prints a final progress
// summary table; see docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
	"valuespec/internal/obsweb"
	"valuespec/internal/report"
	"valuespec/internal/svgplot"
	"valuespec/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsweep: ")
	var (
		table1       = flag.Bool("table1", false, "regenerate Table 1")
		fig3         = flag.Bool("fig3", false, "regenerate Fig. 3")
		fig3detail   = flag.Bool("fig3detail", false, "per-benchmark speedups for the Great model")
		fig4         = flag.Bool("fig4", false, "regenerate Fig. 4")
		latency      = flag.Bool("latency", false, "latency-sensitivity sweep")
		verification = flag.Bool("verification", false, "verification-scheme ablation")
		invalidation = flag.Bool("invalidation", false, "invalidation-scheme ablation")
		resolution   = flag.Bool("resolution", false, "branch/memory resolution ablation")
		forwarding   = flag.Bool("forwarding", false, "speculative-forwarding ablation")
		wakeup       = flag.Bool("wakeup", false, "wakeup-policy ablation")
		selection    = flag.Bool("selection", false, "selection-policy ablation")
		predictors   = flag.Bool("predictors", false, "value-predictor ablation")
		confsweep    = flag.Bool("confsweep", false, "confidence counter-width sweep")
		scaling      = flag.Bool("scaling", false, "width/window scaling sweep")
		geometry     = flag.Bool("geometry", false, "FCM predictor-size sweep")
		scope        = flag.Bool("scope", false, "prediction-scope ablation (all/loads-only)")
		branchq      = flag.Bool("branchq", false, "branch-quality ablation (gshare vs perfect)")
		all          = flag.Bool("all", false, "run everything")
		quick        = flag.Bool("quick", false, "restrict sweeps to the 8/48 configuration")
		submitURL    = flag.String("submit", "", "simulate the run's distinct specs as one job on a vserved daemon at this URL (e.g. http://127.0.0.1:9090) instead of locally; a run with a spec that cannot be serialized is refused before anything is submitted")
		shard        = flag.Int("shard", 0, "with -submit, split the run into N jobs submitted concurrently, so a fleet of workers drains them in parallel; results are reassembled in order and stay byte-identical")
		serveAddr    = flag.String("serve", "", "serve live observability on this address for the duration of the run, e.g. 127.0.0.1:9090 (port 0 picks a free one): Prometheus /metrics, /progress JSON + SSE stream, /series, /dash, /healthz, /readyz, /debug/pprof/")
		specReport   = flag.Bool("spec-report", false, "print the speculation-outcome breakdown — the predicted/used four-quadrant split per (config, model, setting) group — after the sweeps")
		scale        = flag.Int("scale", 0, "workload scale (0 = defaults)")
		outDir       = flag.String("out", "", "also write results as CSV and JSON into this directory")
		svgDir       = flag.String("svg", "", "also render figures as SVG into this directory")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the sweep to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	// Live observability: a SharedRegistry fed by the run's progress
	// tracker, served over HTTP for the duration of the run.
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
	if *memProfile != "" {
		defer func() {
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
		}()
	}
	if *all {
		*table1, *fig3, *fig4 = true, true, true
		*latency, *verification, *invalidation, *resolution = true, true, true, true
		*forwarding, *wakeup, *selection, *predictors, *confsweep = true, true, true, true, true
		*scaling, *geometry, *scope, *branchq = true, true, true, true
	}

	configs := cpu.PaperConfigs()
	if *quick {
		configs = []cpu.Config{cpu.Config8x48()}
	}
	workloads := bench.All()
	ablCfg := cpu.Config8x48() // ablations run on the middle configuration
	great := core.Great()
	irSetting := harness.Setting{Update: cpu.UpdateImmediate}

	// Each selected section adds its study to one run and its printer to the
	// output. The run simulates every distinct spec once, locally or on the
	// daemon; the sections then print in order.
	var studies []harness.AnyStudy
	var sections []func()
	var simTime time.Duration

	if *table1 {
		sections = append(sections, func() {
			section("Table 1: benchmark characteristics")
			rows, err := harness.Table1(*scale)
			check(err)
			save(*outDir, report.Table1(rows))
			var cells [][]string
			for _, r := range rows {
				cells = append(cells, []string{
					r.Benchmark,
					fmt.Sprintf("%d", r.DynamicInstr),
					fmt.Sprintf("%.1f", 100*r.PredictedFrac),
				})
			}
			fmt.Print(textplot.Table([]string{"Benchmark", "Dynamic Instr", "Predicted (%)"}, cells))
		})
	}

	if *fig3 {
		st := harness.Fig3(configs, core.Presets(), harness.PaperSettings(), workloads, *scale)
		studies = append(studies, st)
		sections = append(sections, func() {
			section("Fig. 3: speculative execution models, average speedup (harmonic mean)")
			save(*outDir, report.Fig3(st.Out))
			var bars []textplot.Bar
			for _, c := range st.Out {
				bars = append(bars, textplot.Bar{
					Label: fmt.Sprintf("%s %s %s", c.Config, c.Setting, c.Model),
					Value: c.Speedup,
				})
			}
			fmt.Print(textplot.BarChart("speedup over base (| marks 1.0)", bars, 50, 1.0))
			fmt.Printf("(%d cells in %v)\n", len(st.Out), simTime.Round(time.Second))
			var sbars []svgplot.Bar
			for _, c := range st.Out {
				sbars = append(sbars, svgplot.Bar{
					Group: c.Config + " " + c.Setting,
					Label: c.Model,
					Value: c.Speedup,
				})
			}
			saveSVG(*svgDir, "fig3", svgplot.BarChart(
				"Fig. 3: speculative execution models, harmonic-mean speedup",
				sbars, 1000, 420, 1.0))
		})
	}

	if *fig3detail {
		st := harness.Fig3(configs, []core.Model{great}, harness.PaperSettings(), workloads, *scale)
		studies = append(studies, st)
		sections = append(sections, func() {
			section("Fig. 3 detail: per-benchmark speedups (Great model)")
			header := []string{"Config", "Setting"}
			for _, w := range workloads {
				header = append(header, w.Name)
			}
			var rows [][]string
			for _, c := range st.Out {
				row := []string{c.Config, c.Setting}
				for _, w := range workloads {
					row = append(row, fmt.Sprintf("%.3f", c.PerWkld[w.Name]))
				}
				rows = append(rows, row)
			}
			fmt.Print(textplot.Table(header, rows))
		})
	}

	if *fig4 {
		st := harness.Fig4(configs, workloads, *scale)
		studies = append(studies, st)
		sections = append(sections, func() {
			section("Fig. 4: average prediction accuracy (Great model, real confidence)")
			save(*outDir, report.Fig4(st.Out))
			for _, c := range st.Out {
				label := fmt.Sprintf("%s %s", c.Update, c.Config)
				fmt.Print(textplot.StackedBar(label, []textplot.Segment{
					{Rune: 'C', Frac: c.CH},
					{Rune: 'c', Frac: c.CL},
					{Rune: 'I', Frac: c.IH},
					{Rune: 'i', Frac: c.IL},
				}, 60))
			}
			fmt.Println("C=correct/high-conf c=correct/low-conf I=incorrect/high-conf i=incorrect/low-conf")
			var labels []string
			var rows [][]svgplot.StackedSegment
			for _, c := range st.Out {
				labels = append(labels, fmt.Sprintf("%s %s", c.Update, c.Config))
				rows = append(rows, []svgplot.StackedSegment{
					{Label: "CH", Frac: c.CH}, {Label: "CL", Frac: c.CL},
					{Label: "IH", Frac: c.IH}, {Label: "IL", Frac: c.IL},
				})
			}
			saveSVG(*svgDir, "fig4", svgplot.StackedBars(
				"Fig. 4: average prediction accuracy (Great model)", labels, rows, 800, 360))
		})
	}

	if *latency {
		st := harness.LatencySensitivity(ablCfg, great, irSetting, workloads, *scale, 4)
		studies = append(studies, st)
		sections = append(sections, func() {
			section("Latency sensitivity (Great baseline, I/R, 8/48)")
			save(*outDir, report.Latency(st.Out))
			var cells [][]string
			for _, p := range st.Out {
				cells = append(cells, []string{p.Variable, fmt.Sprintf("%d", p.Value), fmt.Sprintf("%.3f", p.Speedup)})
			}
			fmt.Print(textplot.Table([]string{"Latency variable", "Cycles", "Speedup"}, cells))
			bySeries := map[string]*svgplot.Series{}
			var order []string
			for _, p := range st.Out {
				sr, ok := bySeries[p.Variable]
				if !ok {
					sr = &svgplot.Series{Label: p.Variable}
					bySeries[p.Variable] = sr
					order = append(order, p.Variable)
				}
				sr.X = append(sr.X, float64(p.Value))
				sr.Y = append(sr.Y, p.Speedup)
			}
			var series []svgplot.Series
			for _, name := range order {
				series = append(series, *bySeries[name])
			}
			saveSVG(*svgDir, "latency", svgplot.LineChart(
				"Latency sensitivity (Great baseline, I/R, 8/48)", "latency (cycles)",
				series, 900, 460, 1.0))
		})
	}

	schemeN := 0
	scheme := func(title string, st *harness.Study[[]harness.SchemeResult]) {
		studies = append(studies, st)
		sections = append(sections, func() {
			section(title)
			schemeN++
			save(*outDir, report.Schemes(fmt.Sprintf("ablation%d", schemeN), st.Out))
			var cells [][]string
			for _, r := range st.Out {
				cells = append(cells, []string{r.Scheme, fmt.Sprintf("%.3f", r.Speedup)})
			}
			fmt.Print(textplot.Table([]string{"Scheme", "Speedup"}, cells))
		})
	}

	if *verification {
		scheme("Verification schemes (Section 3.2)",
			harness.VerificationAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *invalidation {
		scheme("Invalidation schemes, real confidence (Section 3.1)",
			harness.InvalidationAblation(ablCfg, great, irSetting, workloads, *scale, false))
		scheme("Invalidation schemes, always speculate",
			harness.InvalidationAblation(ablCfg, great, irSetting, workloads, *scale, true))
	}
	if *resolution {
		scheme("Branch/memory resolution policies (Section 3.2)",
			harness.ResolutionAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *forwarding {
		scheme("Forwarding of speculative values (Section 2.2)",
			harness.ForwardingAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *wakeup {
		scheme("Wakeup policies, always speculate (Section 3.4)",
			harness.WakeupAblation(ablCfg, great, irSetting, workloads, *scale, true))
	}
	if *selection {
		scheme("Selection policies (Section 3.5)",
			harness.SelectionAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *predictors {
		scheme("Value predictors",
			harness.PredictorAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *scaling {
		st := harness.ScalingSweep(great, irSetting, workloads, *scale, harness.DefaultScalingConfigs())
		studies = append(studies, st)
		sections = append(sections, func() {
			section("Width/window scaling (Great, I/R)")
			var cells [][]string
			for _, p := range st.Out {
				cells = append(cells, []string{p.Config, fmt.Sprintf("%.3f", p.BaseIPC), fmt.Sprintf("%.3f", p.Speedup)})
			}
			fmt.Print(textplot.Table([]string{"Config", "Base IPC (hmean)", "Speedup"}, cells))
		})
	}
	if *scope {
		scheme("Prediction scope (all reg-writers vs loads-only)",
			harness.ScopeAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *branchq {
		scheme("Branch quality (value-speculation speedup under gshare vs perfect BP)",
			harness.BranchQualityAblation(ablCfg, great, irSetting, workloads, *scale))
	}
	if *geometry {
		st := harness.PredictorGeometrySweep(ablCfg, great, irSetting, workloads, *scale,
			[]uint{8, 10, 12, 14, 16})
		studies = append(studies, st)
		sections = append(sections, func() {
			section("FCM predictor-size sweep (Great, I/R, 8/48)")
			var cells [][]string
			for _, p := range st.Out {
				cells = append(cells, []string{
					fmt.Sprintf("2^%d entries", p.TableBits),
					fmt.Sprintf("%.3f", p.Speedup),
					fmt.Sprintf("%.1f%%", 100*p.Accuracy),
				})
			}
			fmt.Print(textplot.Table([]string{"Tables", "Speedup", "Accuracy"}, cells))
		})
	}
	if *confsweep {
		st := harness.ConfidenceSweep(ablCfg, great, irSetting, workloads, *scale, 5)
		studies = append(studies, st)
		sections = append(sections, func() {
			section("Confidence resetting-counter width sweep (Great, I/R, 8/48)")
			save(*outDir, report.Confidence(st.Out))
			var cells [][]string
			for _, p := range st.Out {
				cells = append(cells, []string{
					fmt.Sprintf("%d (threshold %d)", p.CounterBits, 1<<p.CounterBits-1),
					fmt.Sprintf("%.3f", p.Speedup),
					fmt.Sprintf("%.1f", 100*p.CH), fmt.Sprintf("%.1f", 100*p.CL),
					fmt.Sprintf("%.1f", 100*p.IH), fmt.Sprintf("%.1f", 100*p.IL),
				})
			}
			fmt.Print(textplot.Table([]string{"Counter bits", "Speedup", "CH%", "CL%", "IH%", "IL%"}, cells))
		})
	}

	if len(sections) == 0 {
		flag.Usage()
		return
	}
	batch := func(ctx context.Context, specs []harness.Spec) ([]harness.Result, error) {
		return harness.SimulateBatch(ctx, specs, progress)
	}
	var sub *submitter
	if *submitURL != "" {
		sub = newSubmitter(*submitURL, *shard, progress)
		batch = sub.run
	}
	var results []harness.Result
	if len(studies) > 0 {
		t0 := time.Now()
		var err error
		results, err = harness.Run(context.Background(), batch, studies...)
		check(err)
		simTime = time.Since(t0)
	}
	for _, show := range sections {
		show()
	}

	if c := harness.DefaultTraceCache(); c.Hits()+c.Misses() > 0 {
		fmt.Printf("\ntrace cache: %d hits, %d misses, %d records cached\n",
			c.Hits(), c.Misses(), c.CachedRecords())
	}

	if sub != nil {
		sub.summary()
	}

	if *specReport {
		section("Speculation-outcome breakdown (fraction of predictions)")
		rows := harness.SpecReportRows(results)
		if len(rows) == 0 {
			fmt.Println("no speculative specs completed")
		} else {
			pct := func(v, total int64) string {
				if total == 0 {
					return "-"
				}
				return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
			}
			cells := make([][]string, 0, len(rows))
			for _, row := range rows {
				o := row.Outcomes
				cells = append(cells, []string{
					row.Config, row.Model, row.Setting,
					fmt.Sprintf("%d", row.Specs),
					fmt.Sprintf("%d", o.Predictions),
					pct(o.CorrectUsed, o.Predictions),
					pct(o.WrongUsed, o.Predictions),
					pct(o.CorrectUnused, o.Predictions),
					pct(o.WrongUnused, o.Predictions),
				})
			}
			fmt.Print(textplot.Table([]string{
				"Config", "Model", "Setting", "Specs", "Predictions",
				"C+used", "W+used", "C+unused", "W+unused",
			}, cells))
			fmt.Println("C/W = value correct/wrong; used = consumed speculatively." +
				" W+used costs an invalidation wave, C+unused is lost opportunity," +
				" W+unused is what confidence saved.")
		}
	}

	if progress != nil {
		progress.Finish()
		snap := progress.Snapshot()
		section("Sweep progress summary")
		fmt.Print(textplot.Table([]string{"Metric", "Value"}, [][]string{
			{"specs completed", fmt.Sprintf("%d/%d", snap.SpecsCompleted, snap.SpecsTotal)},
			{"specs failed", fmt.Sprintf("%d", snap.SpecsFailed)},
			{"cycles simulated", fmt.Sprintf("%d", snap.CyclesTotal)},
			{"instructions retired", fmt.Sprintf("%d", snap.Retired)},
			{"trace-cache hit rate", fmt.Sprintf("%.1f%% (%d hits, %d misses)", 100*snap.CacheHitRate, snap.CacheHits, snap.CacheMisses)},
			{"mean spec wall time", fmt.Sprintf("%.3fs (EWMA)", snap.SpecSecEWMA)},
			{"elapsed", fmt.Sprintf("%.1fs on %d workers", snap.ElapsedSeconds, snap.Workers)},
		}))
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := obsrv.Shutdown(ctx); err != nil {
			log.Printf("observability server shutdown: %v", err)
		}
	}
}

// saveSVG writes an SVG document into dir (no-op when dir is empty).
func saveSVG(dir, name, svg string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".svg"), []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
}

func section(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

// save writes t as CSV and JSON into dir (no-op when dir is empty).
func save(dir string, t *report.Table) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for ext, write := range map[string]func(*report.Table, *os.File) error{
		".csv":  func(t *report.Table, f *os.File) error { return t.WriteCSV(f) },
		".json": func(t *report.Table, f *os.File) error { return t.WriteJSON(f) },
	} {
		f, err := os.Create(filepath.Join(dir, t.Name+ext))
		if err != nil {
			log.Fatal(err)
		}
		if err := write(t, f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// check exits non-zero on any sweep error. A *harness.BatchError gets its
// full failure list printed — one line per failed spec, with its label — so
// a long sweep that lost a handful of specs says exactly which.
func check(err error) {
	if err == nil {
		return
	}
	var be *harness.BatchError
	if errors.As(err, &be) {
		log.Printf("%d of %d specs failed:", len(be.Failures), be.Total)
		for _, f := range be.Failures {
			log.Printf("  spec %d [%s]: %v", f.Index, f.Spec.Label(), f.Err)
		}
		os.Exit(1)
	}
	log.Fatal(err)
}
