// Command benchcheck is the benchmark regression gate: it runs the pinned
// benchmarks with -benchmem, takes the minimum ns/op and allocs/op over
// -count repetitions (the least noisy point estimates), and compares against
// the checked-in baseline. Any benchmark more than -tolerance slower than its
// baseline ns/op, or allocating beyond its allocs/op budget, fails the gate,
// and so does a baseline entry the run did not measure or a measured
// benchmark with no baseline entry. -update reruns the suite and rewrites the
// baseline's numbers instead, keeping its note.
//
// Allocation budgets make the zero-allocation steady state enforceable: a
// budget of 0 (e.g. BenchmarkPipelineSteadyState) fails on the first heap
// allocation that creeps into the hot loop, regardless of timing noise.
//
// Work counters are gated exactly: a benchmark that reports a custom metric
// per op (a unit ending in "/op", e.g. sweep-visits/op) must reproduce its
// baseline value, and every repetition must agree on it. They count what the
// code does rather than how long it takes, so they move only when the code
// does, and -update records the new values.
//
// Usage:
//
//	benchcheck                  # compare against BENCH_BASELINE.json
//	benchcheck -update          # re-measure and rewrite the baseline
//	benchcheck -tolerance 0.30  # loosen the gate (e.g. noisy CI hosts)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// targets pins which benchmarks are gated. Patterns are anchored so new
// benchmarks don't silently join the gate without a baseline entry.
var targets = []struct{ pkg, pattern string }{
	{"./internal/cpu", "^(BenchmarkEmitNilObserver|BenchmarkWakeup|BenchmarkPipelineSteadyState|BenchmarkReplayRequeue|BenchmarkReadyQueueWide|BenchmarkBitsetSelect|BenchmarkIntervalSampler)$"},
	// BenchmarkSpareFootprint's work counters are the table bytes a spec's
	// spare holds and the bytes its Reset writes.
	{"./internal/harness", "^(BenchmarkSimulateAllCached|BenchmarkSpareFootprint)$"},
	// BenchmarkRecordKernels is the trace cache's cold start: its work
	// counters pin every kernel's recording length and bytes.
	{"./internal/trace", "^BenchmarkRecordKernels$"},
	// The jobs benchmarks are disk-bound (atomic file writes), so their
	// checked-in ns/op baselines are hand-slackened above any observed run —
	// a gross-regression gate; their allocation budgets are the tight gate.
	// BenchmarkJournalGroupCommit gates the batched journal's concurrent
	// submit path.
	{"./internal/jobs", "^(BenchmarkJobStorePutGet|BenchmarkQueueSubmitDrain|BenchmarkJournalGroupCommit)$"},
	// BenchmarkSpanEmitDisabled gates the tracing-off fast path at 0
	// allocs/op, the same contract as BenchmarkEmitNilObserver.
	{"./internal/obs", "^(BenchmarkSharedRegistrySnapshot|BenchmarkPromExposition|BenchmarkSpanEmitDisabled|BenchmarkSpanEmitEnabled|BenchmarkTraceExport)$"},
}

// baseline is the BENCH_BASELINE.json schema. AllocsPerOp entries are
// budgets: a run may allocate less, never more (beyond tolerance; a budget
// of 0 admits no tolerance). WorkPerOp holds each benchmark's work counters
// by unit; they must match exactly.
type baseline struct {
	Note        string                        `json:"note"`
	NsPerOp     map[string]float64            `json:"ns_per_op"`
	AllocsPerOp map[string]float64            `json:"allocs_per_op"`
	WorkPerOp   map[string]map[string]float64 `json:"work_per_op,omitempty"`
}

// measurement is one benchmark's folded results: the minimum ns/op and
// allocs/op, and its work counters, which every repetition must agree on.
type measurement struct {
	ns     float64
	allocs float64
	work   map[string]float64
}

// benchLine matches "BenchmarkName/sub-8   123   4567 ns/op   ..." and
// strips the GOMAXPROCS suffix so baselines are stable across machines; the
// rest of the line is (value, unit) pairs.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// isWorkUnit reports whether a reported unit is a work counter: a custom
// metric per op, such as the sweep visits of one whole simulation, which
// benchmarks report with b.ReportMetric. Such counts depend only on the
// code and its input, so the gate holds them exactly.
func isWorkUnit(unit string) bool {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return false
	}
	return strings.HasSuffix(unit, "/op")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	var (
		update    = flag.Bool("update", false, "rewrite the baseline from fresh measurements")
		path      = flag.String("baseline", "BENCH_BASELINE.json", "baseline file")
		count     = flag.Int("count", 3, "benchmark repetitions; the minimum per metric is kept")
		tolerance = flag.Float64("tolerance", 0.15, "allowed slowdown before failing (0.15 = +15%)")
	)
	flag.Parse()

	got := make(map[string]measurement)
	for _, t := range targets {
		if err := runBench(t.pkg, t.pattern, *count, got); err != nil {
			log.Fatal(err)
		}
	}
	if len(got) == 0 {
		log.Fatal("no benchmark results parsed")
	}

	if *update {
		if err := writeBaseline(*path, got); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *path, len(got))
		return
	}
	base, err := readBaseline(*path)
	if err != nil {
		log.Fatalf("%v (run `go run ./cmd/benchcheck -update` to create the baseline)", err)
	}
	if !compare(os.Stdout, base, got, *tolerance) {
		log.Fatalf("benchmark regression beyond %.0f%%, or the gate and the baseline disagree on which benchmarks exist", 100**tolerance)
	}
	fmt.Println("benchcheck: all pinned benchmarks within tolerance and allocation budgets")
}

// defaultNote is the note of a baseline written without a previous one.
const defaultNote = "minimum ns/op and allocs/op budgets over repeated runs; regenerate with `go run ./cmd/benchcheck -update`"

// readBaseline loads the baseline file at path.
func readBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

// writeBaseline rewrites the baseline at path from the measurements got. It
// keeps the note of the baseline it replaces, which records how entries were
// hand-slackened.
func writeBaseline(path string, got map[string]measurement) error {
	b := baseline{
		Note:        defaultNote,
		NsPerOp:     make(map[string]float64, len(got)),
		AllocsPerOp: make(map[string]float64, len(got)),
		WorkPerOp:   make(map[string]map[string]float64),
	}
	if prev, err := readBaseline(path); err == nil && prev.Note != "" {
		b.Note = prev.Note
	}
	for name, m := range got {
		b.NsPerOp[name] = m.ns
		b.AllocsPerOp[name] = m.allocs
		if len(m.work) > 0 {
			b.WorkPerOp[name] = m.work
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare reports each measurement in got against the baseline on w and
// returns whether the gate passes: every baseline entry was measured, every
// measurement has a baseline entry, none is more than tolerance slower, none
// allocates beyond its budget, and every work counter equals its baseline.
func compare(w io.Writer, base baseline, got map[string]measurement, tolerance float64) bool {
	names := make([]string, 0, len(base.NsPerOp))
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		want := base.NsPerOp[name]
		have, measured := got[name]
		if !measured {
			fmt.Fprintf(w, "FAIL %-45s missing from this run\n", name)
			ok = false
			continue
		}
		ratio := have.ns / want
		status := "ok  "
		if ratio > 1+tolerance {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %-45s %12.0f ns/op  baseline %12.0f  (%+.1f%%)\n",
			status, name, have.ns, want, 100*(ratio-1))
		if budget, hasBudget := base.AllocsPerOp[name]; hasBudget {
			if have.allocs > budget*(1+tolerance) {
				fmt.Fprintf(w, "FAIL %-45s %12.0f allocs/op exceeds budget %.0f\n",
					name, have.allocs, budget)
				ok = false
			} else if have.allocs > budget {
				fmt.Fprintf(w, "note %-45s %12.0f allocs/op above budget %.0f (within tolerance)\n",
					name, have.allocs, budget)
			}
		}
		if !compareWork(w, name, base.WorkPerOp[name], have.work) {
			ok = false
		}
	}
	var extra []string
	for name := range got {
		if _, inBase := base.NsPerOp[name]; !inBase {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "FAIL %-45s not in baseline; add it with -update or rename its entry\n", name)
		ok = false
	}
	return ok
}

// compareWork reports one benchmark's work counters against their baseline
// values on w and returns whether each was measured and matches exactly,
// with no counter missing from the baseline.
func compareWork(w io.Writer, name string, want, have map[string]float64) bool {
	units := make([]string, 0, len(want)+len(have))
	for unit := range want {
		units = append(units, unit)
	}
	for unit := range have {
		if _, ok := want[unit]; !ok {
			units = append(units, unit)
		}
	}
	sort.Strings(units)
	ok := true
	for _, unit := range units {
		wv, inBase := want[unit]
		hv, measured := have[unit]
		switch {
		case !inBase:
			fmt.Fprintf(w, "FAIL %-45s %s not in baseline; add it with -update\n", name, unit)
			ok = false
		case !measured:
			fmt.Fprintf(w, "FAIL %-45s %s missing from this run\n", name, unit)
			ok = false
		case hv != wv:
			fmt.Fprintf(w, "FAIL %-45s %12.0f %s  baseline %12.0f  (%+.2f%%; work counters must match exactly, rerun -update if intended)\n",
				name, hv, unit, wv, 100*(hv/wv-1))
			ok = false
		default:
			fmt.Fprintf(w, "ok   %-45s %12.0f %s  matches baseline\n", name, hv, unit)
		}
	}
	return ok
}

// runBench executes one `go test -bench` invocation and folds its results
// into out (see parseBench).
func runBench(pkg, pattern string, count int, out map[string]measurement) error {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-count", strconv.Itoa(count), "-benchmem", pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Printf("running %s -bench %s (count=%d)\n", pkg, pattern, count)
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w\n%s", pkg, err, buf.String())
	}
	matched, err := parseBench(&buf, out)
	if err != nil {
		return fmt.Errorf("%s: %w", pkg, err)
	}
	if !matched {
		return fmt.Errorf("%s: no benchmarks matched %q", pkg, pattern)
	}
	return nil
}

// parseBench folds the benchmark lines of r into out: the minimum ns/op and
// allocs/op per benchmark over repetitions, and its work counters, which
// must agree across repetitions. It reports whether any line matched.
func parseBench(r io.Reader, out map[string]measurement) (bool, error) {
	matched := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return matched, fmt.Errorf("parsing %q: odd number of value/unit fields", sc.Text())
		}
		cur := measurement{ns: -1}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return matched, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				cur.ns = v
			case unit == "allocs/op":
				cur.allocs = v
			case isWorkUnit(unit):
				if cur.work == nil {
					cur.work = make(map[string]float64)
				}
				cur.work[unit] = v
			}
		}
		if cur.ns < 0 {
			return matched, fmt.Errorf("parsing %q: no ns/op", sc.Text())
		}
		prev, ok := out[m[1]]
		if !ok {
			out[m[1]] = cur
		} else {
			prev.ns = min(prev.ns, cur.ns)
			prev.allocs = min(prev.allocs, cur.allocs)
			if len(prev.work) != len(cur.work) {
				return matched, fmt.Errorf("%s: repetitions report different work counters", m[1])
			}
			for unit, v := range cur.work {
				if pv, ok := prev.work[unit]; !ok || pv != v {
					return matched, fmt.Errorf("%s: %s differs between repetitions (%v, %v): a work counter must be deterministic", m[1], unit, pv, v)
				}
			}
			out[m[1]] = prev
		}
		matched = true
	}
	return matched, sc.Err()
}
