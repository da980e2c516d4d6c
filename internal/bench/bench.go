// Package bench provides the benchmark suite: eight synthetic workloads,
// one per SPECint95 benchmark in the paper's Table 1, written for the
// valuespec ISA. SPEC binaries cannot be shipped; each kernel instead
// imitates the computational character of its namesake so that the
// instruction streams exercise the same microarchitectural behaviors —
// dependence chains, data-dependent branches, pointer chasing, hash tables,
// interpreters, recursion — at laptop scale.
//
//	compress  LZW-style dictionary compression over a pseudo-random buffer
//	gcc       table-driven expression evaluation (a compiler's constant folder)
//	go        board scanning with neighbor counting and bounds checks
//	ijpeg     blocked integer image transform over a smooth gradient
//	m88ksim   an interpreter for a tiny simulated CPU
//	perl      string hashing plus numeric formatting with divisions
//	vortex    object-record store with linked-list traversal
//	xlisp     recursive n-queens (the paper's "7 queens" input)
//
// Workloads are parameterized by a scale factor that controls dynamic
// instruction count; DefaultScale targets a few hundred thousand dynamic
// instructions, large enough to warm the predictors yet fast to simulate.
package bench

import (
	"fmt"
	"sort"

	"valuespec/internal/emu"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// Workload is one benchmark of the suite.
type Workload struct {
	// Name is the SPECint95 benchmark this kernel stands in for.
	Name string
	// Description summarizes what the kernel computes.
	Description string
	// DefaultScale is the scale used by the paper-reproduction harness.
	DefaultScale int
	// Build constructs the program at the given scale (iterations).
	Build func(scale int) *program.Program
}

// Program builds the workload at its default scale.
func (w Workload) Program() *program.Program { return w.Build(w.DefaultScale) }

var registry = []Workload{
	{"compress", "LZW-style dictionary compression", 22, Compress},
	{"gcc", "table-driven expression evaluation", 50, GCC},
	{"go", "board scanning and neighbor counting", 47, Go},
	{"ijpeg", "blocked integer image transform", 38, IJpeg},
	{"m88ksim", "tiny-CPU interpreter", 565, M88ksim},
	{"perl", "string hashing and numeric formatting", 35, Perl},
	{"vortex", "object store with linked-list traversal", 38, Vortex},
	{"xlisp", "recursive n-queens (7 queens)", 2, Xlisp},
}

// All returns the full suite in Table 1 order.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// Names returns the benchmark names in Table 1 order.
func Names() []string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.Name
	}
	return names
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	sorted := Names()
	sort.Strings(sorted)
	return Workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, sorted)
}

// Characteristics summarizes a workload's dynamic stream — the columns of
// the paper's Table 1.
type Characteristics struct {
	Name string
	// DynamicInstr is the dynamic instruction count at the given scale.
	DynamicInstr int64
	// PredictedFrac is the fraction of instructions that are value-
	// prediction candidates (register writers), the paper's "Instructions
	// Predicted (%)".
	PredictedFrac float64
	Mix           trace.Mix
}

// Characterize runs the workload functionally and measures its stream.
func Characterize(w Workload, scale int) (Characteristics, error) {
	m, err := emu.New(w.Build(scale))
	if err != nil {
		return Characteristics{}, err
	}
	var mix trace.Mix
	for r, ok := m.NextRef(); ok; r, ok = m.NextRef() {
		mix.Observe(r)
	}
	if !m.Halted() {
		return Characteristics{}, fmt.Errorf("bench: %s did not halt", w.Name)
	}
	return Characteristics{
		Name:          w.Name,
		DynamicInstr:  mix.Total,
		PredictedFrac: mix.RegWriteFrac(),
		Mix:           mix,
	}, nil
}
