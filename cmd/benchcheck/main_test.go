package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := baseline{
		NsPerOp:     map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 0, "BenchmarkB": 10},
	}
	cases := []struct {
		name string
		got  map[string]measurement
		pass bool
		want string // a line the report must contain
	}{
		{"within tolerance",
			map[string]measurement{"BenchmarkA": {110, 0, nil}, "BenchmarkB": {90, 11, nil}},
			true, "note BenchmarkB"},
		{"slower than tolerance",
			map[string]measurement{"BenchmarkA": {120, 0, nil}, "BenchmarkB": {100, 10, nil}},
			false, "FAIL BenchmarkA"},
		{"zero-alloc budget exceeded",
			map[string]measurement{"BenchmarkA": {100, 1, nil}, "BenchmarkB": {100, 10, nil}},
			false, "allocs/op exceeds budget 0"},
		{"baseline entry not measured",
			map[string]measurement{"BenchmarkA": {100, 0, nil}},
			false, "missing from this run"},
		{"measured benchmark without a baseline entry",
			map[string]measurement{"BenchmarkA": {100, 0, nil}, "BenchmarkB": {100, 10, nil}, "BenchmarkA/sub": {1, 5, nil}},
			false, "FAIL BenchmarkA/sub"},
	}
	for _, tc := range cases {
		var out strings.Builder
		if got := compare(&out, base, tc.got, 0.15); got != tc.pass {
			t.Errorf("%s: compare = %t, want %t\n%s", tc.name, got, tc.pass, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}

func TestWriteBaselineKeepsNote(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(path, []byte(`{"note": "hand-slackened", "ns_per_op": {"BenchmarkA": 5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBaseline(path, map[string]measurement{"BenchmarkA": {7, 2, nil}}); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Note != "hand-slackened" || b.NsPerOp["BenchmarkA"] != 7 || b.AllocsPerOp["BenchmarkA"] != 2 {
		t.Fatalf("rewritten baseline = %+v", b)
	}

	// Without a previous baseline the generic note is used.
	fresh := filepath.Join(dir, "fresh.json")
	if err := writeBaseline(fresh, map[string]measurement{"BenchmarkA": {7, 2, nil}}); err != nil {
		t.Fatal(err)
	}
	if b, err := readBaseline(fresh); err != nil || b.Note != defaultNote {
		t.Fatalf("fresh baseline = %+v, %v", b, err)
	}
}

func TestCompareWorkCounters(t *testing.T) {
	base := baseline{
		NsPerOp:     map[string]float64{"BenchmarkA": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 0},
		WorkPerOp:   map[string]map[string]float64{"BenchmarkA": {"sweep-visits/op": 5000, "issue-checks/op": 3000}},
	}
	cases := []struct {
		name string
		work map[string]float64
		pass bool
		want string
	}{
		{"exact match", map[string]float64{"sweep-visits/op": 5000, "issue-checks/op": 3000},
			true, "ok   BenchmarkA"},
		{"fewer visits still fail", map[string]float64{"sweep-visits/op": 4999, "issue-checks/op": 3000},
			false, "work counters must match exactly"},
		{"more visits", map[string]float64{"sweep-visits/op": 5000, "issue-checks/op": 3001},
			false, "FAIL BenchmarkA"},
		{"counter not reported", map[string]float64{"sweep-visits/op": 5000},
			false, "issue-checks/op missing from this run"},
		{"counter without a baseline", map[string]float64{"sweep-visits/op": 5000, "issue-checks/op": 3000, "load-visits/op": 7},
			false, "load-visits/op not in baseline"},
	}
	for _, tc := range cases {
		var out strings.Builder
		got := map[string]measurement{"BenchmarkA": {100, 0, tc.work}}
		if pass := compare(&out, base, got, 0.15); pass != tc.pass {
			t.Errorf("%s: compare = %t, want %t\n%s", tc.name, pass, tc.pass, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}

func TestParseBench(t *testing.T) {
	const output = `goos: linux
BenchmarkWakeup-2   	      10	  12000000 ns/op	     48001 issue-checks/op	   1200000 instrs/s	     60002 sweep-visits/op	  100 B/op	       6186 allocs/op
BenchmarkWakeup-2   	      12	  11000000 ns/op	     48001 issue-checks/op	   1300000 instrs/s	     60002 sweep-visits/op	  100 B/op	       6185 allocs/op
BenchmarkSteady-2   	 1000000	      1014 ns/op	       0 B/op	       0 allocs/op
PASS
`
	out := make(map[string]measurement)
	matched, err := parseBench(strings.NewReader(output), out)
	if err != nil || !matched {
		t.Fatalf("parseBench = %t, %v", matched, err)
	}
	w := out["BenchmarkWakeup"]
	if w.ns != 11000000 || w.allocs != 6185 ||
		len(w.work) != 2 || w.work["issue-checks/op"] != 48001 || w.work["sweep-visits/op"] != 60002 {
		t.Errorf("BenchmarkWakeup folded to %+v", w)
	}
	if s := out["BenchmarkSteady"]; s.ns != 1014 || s.allocs != 0 || s.work != nil {
		t.Errorf("BenchmarkSteady folded to %+v", s)
	}

	// A work counter that moves between repetitions is not a work counter.
	flaky := strings.Replace(output, "60002 sweep-visits/op", "60003 sweep-visits/op", 1)
	if _, err := parseBench(strings.NewReader(flaky), make(map[string]measurement)); err == nil ||
		!strings.Contains(err.Error(), "deterministic") {
		t.Errorf("differing repetitions: err = %v, want a determinism error", err)
	}
}

func TestWriteBaselineRecordsWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	got := map[string]measurement{
		"BenchmarkA": {7, 2, map[string]float64{"sweep-visits/op": 123}},
		"BenchmarkB": {9, 0, nil},
	}
	if err := writeBaseline(path, got); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.WorkPerOp) != 1 || b.WorkPerOp["BenchmarkA"]["sweep-visits/op"] != 123 {
		t.Fatalf("work_per_op = %v, want only BenchmarkA's counter", b.WorkPerOp)
	}
	var out strings.Builder
	if !compare(&out, b, got, 0) {
		t.Fatalf("a run does not pass against the baseline written from it:\n%s", out.String())
	}
}
