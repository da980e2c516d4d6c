package main

import (
	"strings"
	"testing"

	"valuespec/internal/emu"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// TestExecuteReportsFault: a program that runs off the end of its code
// faults, and execute returns the fault; one that ends in HALT returns nil.
func TestExecuteReportsFault(t *testing.T) {
	for _, c := range []struct {
		src, want string
	}{
		{"addi r1, r1, 1\naddi r2, r1, 2", "pc 2 out of range [0,2)"},
		{"addi r1, r1, 1\nhalt", ""},
	} {
		m, err := emu.New(program.MustAssemble(c.src))
		if err != nil {
			t.Fatal(err)
		}
		var mix trace.Mix
		err = execute(m, &mix, nil)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%q: err = %v, want %q", c.src, err, c.want)
		}
	}
}
