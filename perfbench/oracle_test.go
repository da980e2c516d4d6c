package main

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/obs"
)

func TestOracleReportsPerturbedDigest(t *testing.T) {
	st := &cpu.Stats{Cycles: 1234, Retired: 2000, Issues: 2100}
	o := &oracle{Stats: map[string]string{"k": digest(st)}}
	if err := o.check("k", st); err != nil {
		t.Fatalf("intact oracle rejects its own stats: %v", err)
	}
	if err := o.selfTest("k", st); err != nil {
		t.Fatalf("self-test: %v", err)
	}
	bad := &oracle{Stats: map[string]string{"k": perturb(o.Stats["k"])}}
	if err := bad.check("k", st); err == nil {
		t.Fatal("perturbed digest was not reported")
	}
	changed := *st
	changed.Cycles++
	if err := o.check("k", &changed); err == nil {
		t.Fatal("changed stats were not reported")
	}
	if err := o.check("k", nil); err == nil {
		t.Fatal("missing stats were not reported")
	}
	if err := o.check("other", st); err == nil {
		t.Fatal("a spec without a digest was not reported")
	}
	// A self-test over an oracle that cannot tell stats apart must fail.
	blind := &oracle{Stats: map[string]string{"k": digest(st)}}
	if err := blind.selfTest("missing", st); err == nil {
		t.Fatal("self-test passed for a label the oracle does not hold")
	}
}

func TestEmbeddedOracleCoversEveryWorkload(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	base, runs := fig3Specs()
	var labels []string
	for _, s := range append(append(base, runs...), modelSpaceSpecs()...) {
		labels = append(labels, s.Label())
	}
	for _, s := range append(hotPool(), tinyGrid()...) {
		labels = append(labels, specLabel(s))
	}
	if len(base)+len(runs) != 104 || len(modelSpaceSpecs()) != 64 || len(tinyGrid()) != 91 || len(hotPool()) != 8 {
		t.Fatalf("workload sizes changed: fig3 %d, model_space %d, tiny grid %d, hot pool %d",
			len(base)+len(runs), len(modelSpaceSpecs()), len(tinyGrid()), len(hotPool()))
	}
	seen := make(map[string]bool)
	for _, l := range labels {
		if _, ok := o.Stats[l]; !ok {
			t.Errorf("oracle has no digest for %s", l)
		}
		seen[l] = true
	}
	if len(seen) != len(o.Stats) {
		t.Errorf("oracle holds %d digests, the workloads use %d distinct specs", len(o.Stats), len(seen))
	}
	if o.Fig3Cells == "" {
		t.Error("oracle has no Fig. 3 cells digest")
	}
}

func TestGenOpsIsSeeded(t *testing.T) {
	a, b, c := genOps(7, 1000), genOps(7, 1000), genOps(8, 1000)
	same := func(x, y []op) bool {
		for i := range x {
			if x[i].kind != y[i].kind || x[i].hot != y[i].hot || specLabel(x[i].spec) != specLabel(y[i].spec) ||
				x[i].spec.Config.MaxCycles != y[i].spec.Config.MaxCycles {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("one seed gave two different op sequences")
	}
	if same(a, c) {
		t.Fatal("two seeds gave the same op sequence")
	}
	if countKind(a, opHot) != 500 || countKind(a, opUnique) != 250 || countKind(a, opFetch) != 250 {
		t.Fatalf("mix %d/%d/%d, want 500/250/250", countKind(a, opHot), countKind(a, opUnique), countKind(a, opFetch))
	}
	nonces := make(map[int64]bool)
	for _, o := range a {
		if o.kind != opUnique {
			continue
		}
		if o.spec.Scale != 1 || o.spec.Workload == "xlisp" {
			t.Fatalf("unique job %s is not a scale-1 non-xlisp spec", specLabel(o.spec))
		}
		if nonces[o.spec.Config.MaxCycles] {
			t.Fatalf("MaxCycles nonce %d used twice", o.spec.Config.MaxCycles)
		}
		nonces[o.spec.Config.MaxCycles] = true
	}
}

func TestDoneWatchSeesTerminalLogLines(t *testing.T) {
	var buf strings.Builder
	w := newDoneWatch(&buf)
	logger, err := obs.NewLogger(w, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("job submitted", "job", "j000001")
	logger.Warn("job attempt failed, retrying", "job", "j000002")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, err := w.wait(ctx, []string{"j000001"}); err == nil {
		t.Fatal("a submitted job counted as terminal")
	}
	cancel()
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		logger.Info("job done", "job", "j000001", "elapsed", time.Millisecond)
		logger.Log(context.Background(), slog.LevelError, "job failed", "job", "j000002")
	}()
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := w.wait(ctx, []string{"j000001", "j000002"}); err != nil {
		t.Fatal(err)
	}
	<-logged
	if !strings.Contains(buf.String(), `msg="job done"`) {
		t.Fatal("log lines were not passed through to the file")
	}
}
