// Command perfbench is the repository's benchmark: one process runs one
// workload once and prints every metric by name and unit, then a final JSON
// line with the verdict of its output checks.
//
//	perfbench --workload fig3_sweep|model_space|service_mix \
//	          --seed N --seconds S --trace 0|1 [--work DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every layer call and reports the
// per-layer metrics (plus its own end-to-end numbers, so the tracing
// overhead shows). Spans are written as a Chrome trace under DIR/traces.
// perfbench --gen-oracle FILE regenerates the expected Stats digests. See
// NOTES.md for what each workload runs and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"valuespec/internal/obs"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// report order; every run reports all of one list.
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "sim_minst_per_s", "cpu_us_per_op"}
	perLayer = []string{
		"emu.minst_per_s",
		"trace.records", "trace.cache_mb", "trace.replay_ns_per_record",
		"harness.spec_ms_p50", "harness.spec_ms_max", "harness.pool_busy_frac", "harness.cache_hit_frac",
		"cpu.sim_cycles", "cpu.retired", "cpu.ns_per_cycle",
		"cpu.stage.writeback_ns", "cpu.stage.events_ns", "cpu.stage.sweep_ns", "cpu.stage.retire_ns",
		"cpu.stage.issue_ns", "cpu.stage.mem_ns", "cpu.stage.fetch_ns",
		"cpu.construct_us", "cpu.issue_useful_frac", "cpu.nullified_per_kinstr", "cpu.squashed_per_kinstr",
		"vpred.predictions", "vpred.ns_per_prediction", "vpred.accuracy",
		"confidence.ns_per_call",
		"bpred.branches", "bpred.ns_per_branch", "bpred.mispredict_frac",
		"mem.accesses", "mem.ns_per_access", "mem.l1d_miss_frac",
	}
)

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string
}

func main() {
	var (
		workload = flag.String("workload", "", "fig3_sweep, model_space or service_mix")
		seed     = flag.Int64("seed", 1, "input seed (service_mix draws its operations from it)")
		seconds  = flag.Int("seconds", 20, "length of the measured phase")
		traceOn  = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		work     = flag.String("work", ".bench_build", "directory for data directories and span files")
		genPath  = flag.String("gen-oracle", "", "simulate every spec and write the oracle digests to this file, then exit")
	)
	flag.Parse()
	if *genPath != "" {
		if err := genOracle(*genPath); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceOn == 1, work: *work,
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatal(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	rep := newReport(cfg)
	var err error
	switch cfg.workload {
	case "fig3_sweep", "model_space":
		err = runSweep(cfg, rep)
	case "service_mix":
		err = runService(cfg, rep)
	default:
		err = fmt.Errorf("unknown --workload %q (want fig3_sweep, model_space or service_mix)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	rep.e2e["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	if err := rep.print(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, checks and diagnostics.
type report struct {
	cfg       runConfig
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	selfTest  error
	errs      []string
	notes     []string
	diags     map[string]diag
}

func newReport(cfg runConfig) *report {
	return &report{cfg: cfg, e2e: make(map[string]metric), layer: make(map[string]metric),
		diags: make(map[string]diag)}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// selfTestFailed records that the oracle's self-test did not catch a
// perturbed digest: the run's checks cannot be trusted.
func (r *report) selfTestFailed(err error) {
	r.selfTest = err
	r.errs = append(r.errs, err.Error())
}

// setup records the cold set-up repetitions. setup_s is the median of
// their process CPU times (user+sys, every thread): on a VM with paravirtual
// steal accounting CPU time leaves out the time the hypervisor took the
// vCPUs away, which moved the wall time of the same set-up by a third
// between sets of runs (NOTES.md, Steadiness). The wall times are printed
// beside it.
func (r *report) setup(reps []window) {
	var cpu, wall, sys, steal []float64
	var faults []string
	for _, w := range reps {
		d := w.diag()
		cpu = append(cpu, d.CPUS)
		wall = append(wall, d.WallS)
		sys = append(sys, d.SysS)
		steal = append(steal, d.StealFrac)
		faults = append(faults, fmt.Sprint(d.MinorFlt))
	}
	r.e2e["setup_s"] = metric{median(cpu), "s"}
	r.diags["setup"] = diagOf(reps)
	r.notef("setup: %d cold repetitions, median CPU %.4f s (setup_s), median wall %.4f s",
		len(reps), median(cpu), median(wall))
	r.notef("setup repetitions: cpu_s %s wall_s %s sys_s %s steal %s minor_faults [%s]",
		fmtFloats(cpu), fmtFloats(wall), fmtFloats(sys), fmtFloats(steal), strings.Join(faults, " "))
}

func (r *report) measured(w window) { r.diags["measured"] = w.diag() }

func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// result is the final line, the one machine readers parse.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) print(w *os.File) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%t\n",
		r.cfg.workload, r.cfg.seed, int(r.cfg.seconds.Seconds()), r.cfg.trace)
	hostJSON, _ := json.Marshal(hostFingerprint()) // plain struct; cannot fail
	fmt.Fprintf(w, "host %s\n", hostJSON)
	for _, phase := range []string{"setup", "measured"} {
		d, _ := json.Marshal(r.diags[phase]) // plain struct; cannot fail
		fmt.Fprintf(w, "noise %s %s\n", phase, d)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	title := "end-to-end"
	if r.cfg.trace {
		title = "end-to-end of the traced run (tracing overhead included)"
	}
	printMetrics(w, title, endToEnd, r.e2e)
	if r.cfg.trace {
		printMetrics(w, "per-layer", perLayer, r.layer)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAIL", e)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed, oracle self-test %s\n",
		r.attempted, r.failed, okStr(r.selfTest == nil))

	names, src := endToEnd, r.e2e
	if r.cfg.trace {
		names, src = perLayer, r.layer
	}
	out := result{
		Correct:   r.failed == 0 && r.selfTest == nil && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func okStr(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

func printMetrics(w *os.File, title string, names []string, ms map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	seen := make(map[string]bool)
	for _, n := range names {
		if m, ok := ms[n]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
			seen[n] = true
		}
	}
	var extra []string
	for n := range ms {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeSpans exports the run's spans as a Chrome trace under work/traces.
func (r *report) writeSpans(spans []obs.Span) {
	dir := filepath.Join(r.cfg.work, "traces")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		var f *os.File
		if f, err = os.Create(path); err == nil {
			err = obs.WriteChromeTrace(f, spans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		r.notef("spans: not written: %v", err)
		return
	}
	r.notef("spans: %d written to %s", len(spans), path)
}
