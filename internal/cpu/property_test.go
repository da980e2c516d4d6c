package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// genProgram builds a random but terminating program: straight-line ALU
// blocks, counted loops with loads and stores, data-dependent skips, and an
// occasional leaf call. Every control structure is bounded by construction.
func genProgram(r *rand.Rand) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("fuzz-%d", r.Int63()))
	// Seed registers r1..r8 and an address base.
	for reg := isa.Reg(1); reg <= 8; reg++ {
		b.Ldi(reg, int64(r.Intn(200)-100))
	}
	b.Ldi(20, 0x400) // data base

	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(8)) }
	alu := func() {
		ops := []func(){
			func() { b.Add(reg(), reg(), reg()) },
			func() { b.Sub(reg(), reg(), reg()) },
			func() { b.Xor(reg(), reg(), reg()) },
			func() { b.And(reg(), reg(), reg()) },
			func() { b.Or(reg(), reg(), reg()) },
			func() { b.Mul(reg(), reg(), reg()) },
			func() { b.Div(reg(), reg(), reg()) },
			func() { b.Slt(reg(), reg(), reg()) },
			func() { b.Addi(reg(), reg(), int64(r.Intn(20)-10)) },
			func() { b.Shli(reg(), reg(), int64(r.Intn(8))) },
			func() { b.Shri(reg(), reg(), int64(r.Intn(8))) },
		}
		ops[r.Intn(len(ops))]()
	}
	memOp := func() {
		off := int64(r.Intn(16))
		if r.Intn(2) == 0 {
			b.St(reg(), 20, off)
		} else {
			b.Ld(reg(), 20, off)
		}
	}

	nblocks := 3 + r.Intn(5)
	for blk := 0; blk < nblocks; blk++ {
		switch r.Intn(4) {
		case 0: // straight line
			for i := 0; i < 4+r.Intn(10); i++ {
				alu()
			}
		case 1: // counted loop with memory traffic
			cnt := isa.Reg(9)
			top := fmt.Sprintf("loop%d", blk)
			b.Ldi(cnt, int64(2+r.Intn(6)))
			b.Label(top)
			for i := 0; i < 2+r.Intn(5); i++ {
				if r.Intn(3) == 0 {
					memOp()
				} else {
					alu()
				}
			}
			b.Addi(cnt, cnt, -1)
			b.Bne(cnt, 0, top)
		case 2: // data-dependent skip
			skip := fmt.Sprintf("skip%d", blk)
			b.Slt(10, reg(), reg())
			b.Beq(10, 0, skip)
			for i := 0; i < 1+r.Intn(4); i++ {
				alu()
			}
			b.Label(skip)
		case 3: // leaf call
			fn := fmt.Sprintf("fn%d", blk)
			cont := fmt.Sprintf("cont%d", blk)
			b.Jal(31, fn)
			b.Jmp(cont)
			b.Label(fn)
			alu()
			alu()
			b.Jr(31)
			b.Label(cont)
		}
	}
	b.Halt()
	return b.MustBuild()
}

// simulate runs the record stream under the given options and returns stats.
func simulate(t *testing.T, cfg Config, spec *SpecOptions, recs []trace.Record) *Stats {
	t.Helper()
	p, err := New(cfg, spec, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v\nstats: %s", err, p.Stats())
	}
	return st
}

// simulateCheckingValidAt is simulate one cycle at a time: after every
// cycle, no occupied entry and none of its in-window operands may hold a
// validAt later than that cycle. Validity is only ever recorded for a cycle
// already reached, which is why the sweep never needs a time-gated retry.
func simulateCheckingValidAt(t *testing.T, cfg Config, spec *SpecOptions, recs []trace.Record) *Stats {
	t.Helper()
	p, err := New(cfg, spec, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	r := p.NewRunner()
	for !r.Step(1) {
		c := p.cycle - 1
		for i := range p.entries {
			e := &p.entries[i]
			if !e.used {
				continue
			}
			if e.validAt != never && e.validAt > c {
				t.Fatalf("cycle %d: entry %d (%s) validAt %d", c, i, e.rec.String(), e.validAt)
			}
			for s := 0; s < e.nsrc; s++ {
				if o := &e.src[s]; o.inWindow && o.validAt != never && o.validAt > c {
					t.Fatalf("cycle %d: entry %d (%s) operand %d validAt %d", c, i, e.rec.String(), s, o.validAt)
				}
			}
		}
	}
	st, err := r.Result()
	if err != nil {
		t.Fatalf("Run: %v\nstats: %s", err, st)
	}
	return st
}

// TestRandomProgramsAllModels is the central soundness property: for
// arbitrary programs, every model/scheme/policy combination must retire
// exactly the architectural instruction stream with self-consistent
// statistics — no deadlocks, no lost or duplicated instructions, no
// validity recorded for a future cycle — and attaching the Telemetry
// instrument must change none of it. The three conservation laws the
// harness checks on every spec hold here too: retired equals the records
// delivered (law 1), the four prediction sets partition the predictions
// (law 4), and every dispatch retires or is squashed (law 5).
func TestRandomProgramsAllModels(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	configs := []Config{flatMemConfig(Config4x24()), Config8x48()}

	variants := []func() *SpecOptions{
		func() *SpecOptions { return nil }, // base
	}
	for _, preset := range core.Presets() {
		preset := preset
		for _, u := range []UpdateTiming{UpdateImmediate, UpdateDelayed} {
			u := u
			variants = append(variants, func() *SpecOptions {
				return &SpecOptions{Enabled: true, Model: preset, Update: u}
			})
		}
	}
	// Scheme and policy ablations on the Great model, always speculating to
	// maximize misspeculation coverage.
	ablations := []func(m *core.Model){
		func(m *core.Model) { m.Verification = core.VerifyHierarchical },
		func(m *core.Model) { m.Verification = core.VerifyRetirement },
		func(m *core.Model) { m.Verification = core.VerifyHybrid },
		func(m *core.Model) { m.Invalidation = core.InvalidateHierarchical },
		func(m *core.Model) { m.Invalidation = core.InvalidateComplete },
		func(m *core.Model) { m.BranchResolution = core.ResolveSpeculative },
		func(m *core.Model) { m.MemResolution = core.ResolveSpeculative },
		func(m *core.Model) { m.ForwardSpeculative = false },
		func(m *core.Model) { m.Wakeup = core.WakeupLimited },
		func(m *core.Model) { m.Selection = core.SelectOldestFirst },
		// Hostile combinations: slow everything with eager speculation.
		func(m *core.Model) {
			m.Verification = core.VerifyHierarchical
			m.Invalidation = core.InvalidateHierarchical
			m.Lat.ExecEqInvalidate = 3
			m.Lat.ExecEqVerify = 3
			m.BranchResolution = core.ResolveSpeculative
			m.MemResolution = core.ResolveSpeculative
		},
		func(m *core.Model) {
			m.Verification = core.VerifyRetirement
			m.Invalidation = core.InvalidateComplete
			m.Wakeup = core.WakeupLimited
			m.ForwardSpeculative = false
			m.Lat.InvalidateReissue = 4
		},
	}
	for _, ab := range ablations {
		ab := ab
		variants = append(variants, func() *SpecOptions {
			m := core.Great()
			ab(&m)
			return &SpecOptions{
				Enabled:    true,
				Model:      m,
				Confidence: confidence.Always{},
			}
		})
	}

	for trial := 0; trial < 8; trial++ {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(3000))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(m, 0)
		if len(recs) == 0 {
			t.Fatal("empty trace")
		}
		for vi, mk := range variants {
			for ci, cfg := range configs {
				newSpec := func() *SpecOptions {
					spec := mk()
					if spec != nil {
						// Fresh predictor state per run.
						spec.Predictor = vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4})
						if spec.Confidence == nil {
							spec.Confidence = confidence.NewResetting(10, 2)
						}
					}
					return spec
				}
				spec := newSpec()
				st := simulateCheckingValidAt(t, cfg, spec, recs)
				if st.Retired != int64(len(recs)) {
					t.Fatalf("trial %d variant %d cfg %d: retired %d of %d",
						trial, vi, ci, st.Retired, len(recs))
				}
				if st.CH+st.CL+st.IH+st.IL != st.Predictions {
					t.Fatalf("trial %d variant %d: prediction sets don't partition: %s", trial, vi, st)
				}
				if st.Speculated != st.CH+st.IH {
					t.Fatalf("trial %d variant %d: speculated %d != CH+IH %d",
						trial, vi, st.Speculated, st.CH+st.IH)
				}
				if spec == nil && st.Predictions != 0 {
					t.Fatalf("base run made %d predictions", st.Predictions)
				}
				if ipc := st.IPC(); ipc > float64(cfg.IssueWidth) {
					t.Fatalf("trial %d variant %d: IPC %.2f exceeds width", trial, vi, ipc)
				}
				if st.Dispatched != st.Retired+st.CompleteSquashes {
					t.Fatalf("trial %d variant %d cfg %d: dispatched %d != retired %d + squashed %d",
						trial, vi, ci, st.Dispatched, st.Retired, st.CompleteSquashes)
				}

				// Again with the instrument attached at an interval and
				// capacity that decimate: the same Stats, reconciled columns.
				p, err := New(cfg, newSpec(), &trace.SliceSource{Records: recs})
				if err != nil {
					t.Fatal(err)
				}
				tl := NewTelemetry(7, 8)
				p.SetTelemetry(tl)
				ist, err := p.Run()
				if err != nil {
					t.Fatalf("trial %d variant %d cfg %d with telemetry: %v", trial, vi, ci, err)
				}
				if *ist != *st {
					t.Fatalf("trial %d variant %d cfg %d: telemetry changed Stats:\n%s\nvs\n%s", trial, vi, ci, ist, st)
				}
				checkColumnsReconcile(t, tl, p)
			}
		}
	}
}

// TestNeverConfidenceMatchesBase checks cycle-exact equivalence between the
// base processor and a speculative pipeline that never speculates, across
// random programs and all three presets — the paper's "identical to the
// base-processor" property, generalized.
func TestNeverConfidenceMatchesBase(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := Config8x48()
	for trial := 0; trial < 10; trial++ {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(2000))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(m, 0)
		base := simulate(t, cfg, nil, recs)
		for _, preset := range core.Presets() {
			spec := &SpecOptions{
				Enabled:    true,
				Model:      preset,
				Confidence: confidence.Never{},
			}
			st := simulate(t, cfg, spec, recs)
			if st.Cycles != base.Cycles {
				t.Errorf("trial %d model %s: %d cycles, base %d",
					trial, preset.Name, st.Cycles, base.Cycles)
			}
		}
	}
}

// TestOptimismNeverHurtsOnRandomPrograms checks the monotonicity the paper's
// Fig. 1 example suggests: with oracle confidence (no misspeculation), the
// Super model is at least as fast as Good on any program.
func TestOptimismNeverHurtsOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cfg := Config8x48()
	for trial := 0; trial < 10; trial++ {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(2000))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(m, 0)
		run := func(model core.Model) int64 {
			spec := &SpecOptions{
				Enabled:    true,
				Model:      model,
				Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
				Confidence: confidence.Oracle{},
			}
			return simulate(t, cfg, spec, recs).Cycles
		}
		superC, goodC := run(core.Super()), run(core.Good())
		if superC > goodC {
			t.Errorf("trial %d: super %d cycles > good %d cycles under oracle confidence",
				trial, superC, goodC)
		}
	}
}
