package main

import (
	"time"

	"valuespec/internal/bpred"
	"valuespec/internal/confidence"
	"valuespec/internal/harness"
	"valuespec/internal/isa"
	"valuespec/internal/mem"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// componentCosts fills the emu, trace, vpred, confidence, bpred and mem
// per-layer metrics. The emulator's rate comes from the set-up recordings.
// The rest replays every recorded trace of the workload: once bare, to time
// the replay cursor, then through each component's public methods, one
// component per timed loop over that component's inputs (extracted from the
// trace untimed), with fresh component state per kernel as a simulation
// starts with.
func componentCosts(rep *report, pairs []tracePair, rec recording) error {
	layer := rep.layer
	layer["emu.minst_per_s"] = metric{float64(rec.totalRec) / rec.recordNS.Seconds() / 1e6, "Minst/s"}
	layer["trace.records"] = metric{float64(rec.records), "records"}
	layer["trace.cache_mb"] = metric{float64(harness.DefaultTraceCache().CachedBytes()) / (1 << 20), "MiB"}

	bare, err := replaySources(pairs)
	if err != nil {
		return err
	}
	again, err := replaySources(pairs)
	if err != nil {
		return err
	}
	var c costs
	for k := range bare {
		c.kernel(bare[k], again[k])
	}
	replaySink = c.sink
	layer["trace.replay_ns_per_record"] = metric{perCall(c.replay, c.records), "ns"}
	layer["vpred.predictions"] = metric{float64(c.preds), "count"}
	layer["vpred.ns_per_prediction"] = metric{perCall(c.vpred, c.preds), "ns"}
	layer["vpred.accuracy"] = metric{ratio(c.correct, c.preds), "ratio"}
	layer["confidence.ns_per_call"] = metric{perCall(c.conf, c.preds), "ns"}
	layer["bpred.branches"] = metric{float64(c.branches), "count"}
	layer["bpred.ns_per_branch"] = metric{perCall(c.bpred, c.branches), "ns"}
	layer["bpred.mispredict_frac"] = metric{ratio(c.branches-c.brHits, c.branches), "ratio"}
	layer["mem.accesses"] = metric{float64(c.accesses), "count"}
	layer["mem.ns_per_access"] = metric{perCall(c.mem, c.accesses), "ns"}
	layer["mem.l1d_miss_frac"] = metric{ratio(c.l1dMiss, c.accesses), "ratio"}
	rep.notef("components: FCM immediate update, %d of %d predictions confident (resetting counters)", c.confident, c.preds)
	return nil
}

// replaySink keeps the bare replay loop's reads observable to the compiler.
var replaySink int64

// costs accumulates the component replays over a workload's kernels.
type costs struct {
	records, sink                   int64
	preds, correct, confident       int64
	branches, brHits                int64
	accesses, l1dMiss               int64
	replay, vpred, conf, bpred, mem time.Duration
}

type valueIn struct {
	pc  int
	val int64
}

type branchIn struct {
	pc    int
	taken bool
}

// kernel replays one kernel's recording: bare is timed as the replay
// cursor alone, again feeds the untimed input extraction.
func (c *costs) kernel(bare, again *trace.MemorySource) {
	t0 := time.Now()
	for r, ok := bare.NextRef(); ok; r, ok = bare.NextRef() {
		c.sink += r.DstVal
		c.records++
	}
	c.replay += time.Since(t0)

	var values []valueIn
	var branches []branchIn
	var addrs []uint64
	for r, ok := again.NextRef(); ok; r, ok = again.NextRef() {
		if r.WritesReg() {
			values = append(values, valueIn{r.PC, r.DstVal})
		}
		if isa.IsCondBranch(r.Instr.Op) {
			branches = append(branches, branchIn{r.PC, r.Taken})
		}
		if cls := isa.ClassOf(r.Instr.Op); cls == isa.ClassLoad || cls == isa.ClassStore {
			addrs = append(addrs, uint64(r.Addr)*8) // word address to byte address, as the pipeline does
		}
	}

	// Value prediction; the outcome store is the loop's only extra work.
	p := vpred.NewFCM(vpred.DefaultFCMConfig())
	correct := make([]bool, len(values))
	t0 = time.Now()
	for i, v := range values {
		pred, ck := p.Lookup(v.pc)
		p.TrainImmediate(v.pc, ck, v.val)
		correct[i] = pred == v.val
	}
	c.vpred += time.Since(t0)
	c.preds += int64(len(values))

	est := confidence.Default()
	t0 = time.Now()
	for i, v := range values {
		if est.Confident(v.pc, correct[i]) {
			c.confident++
		}
		est.Update(v.pc, correct[i])
	}
	c.conf += time.Since(t0)
	for _, ok := range correct {
		if ok {
			c.correct++
		}
	}

	g := bpred.Default()
	t0 = time.Now()
	for _, b := range branches {
		g.PredictAndUpdate(b.pc, b.taken)
	}
	c.bpred += time.Since(t0)
	c.branches += g.Lookups
	c.brHits += g.Correct

	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	t0 = time.Now()
	for _, a := range addrs {
		h.Data(a)
	}
	c.mem += time.Since(t0)
	c.accesses += int64(len(addrs))
	c.l1dMiss += h.L1D().Misses
}

func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
