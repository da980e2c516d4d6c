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
			map[string]measurement{"BenchmarkA": {110, 0}, "BenchmarkB": {90, 11}},
			true, "note BenchmarkB"},
		{"slower than tolerance",
			map[string]measurement{"BenchmarkA": {120, 0}, "BenchmarkB": {100, 10}},
			false, "FAIL BenchmarkA"},
		{"zero-alloc budget exceeded",
			map[string]measurement{"BenchmarkA": {100, 1}, "BenchmarkB": {100, 10}},
			false, "allocs/op exceeds budget 0"},
		{"baseline entry not measured",
			map[string]measurement{"BenchmarkA": {100, 0}},
			false, "missing from this run"},
		{"measured benchmark without a baseline entry",
			map[string]measurement{"BenchmarkA": {100, 0}, "BenchmarkB": {100, 10}, "BenchmarkA/sub": {1, 5}},
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
	if err := writeBaseline(path, map[string]measurement{"BenchmarkA": {7, 2}}); err != nil {
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
	if err := writeBaseline(fresh, map[string]measurement{"BenchmarkA": {7, 2}}); err != nil {
		t.Fatal(err)
	}
	if b, err := readBaseline(fresh); err != nil || b.Note != defaultNote {
		t.Fatalf("fresh baseline = %+v, %v", b, err)
	}
}
