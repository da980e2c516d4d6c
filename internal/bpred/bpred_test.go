package bpred

import "testing"

func TestLearnsAlwaysTaken(t *testing.T) {
	g := NewGshare(8)
	pc := 0x40
	for i := 0; i < 10; i++ {
		g.PredictAndUpdate(pc, true)
	}
	if pred, _ := g.PredictAndUpdate(pc, true); !pred {
		t.Error("did not learn an always-taken branch")
	}
}

func TestLearnsAlternatingPattern(t *testing.T) {
	// An alternating branch is perfectly correlated with one bit of
	// history; gshare must become perfect after warmup.
	g := NewGshare(8)
	pc := 0x44
	taken := false
	for i := 0; i < 64; i++ {
		g.PredictAndUpdate(pc, taken)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if _, ok := g.PredictAndUpdate(pc, taken); ok {
			correct++
		}
		taken = !taken
	}
	if correct != 100 {
		t.Errorf("alternating pattern: %d/100 correct after warmup", correct)
	}
}

func TestLearnsLoopExitPattern(t *testing.T) {
	// A loop of period 5 (4 taken, 1 not-taken) fits easily in 8 bits of
	// history.
	g := NewGshare(8)
	pc := 0x10
	warm := func(rounds int) int {
		correct := 0
		for r := 0; r < rounds; r++ {
			for i := 0; i < 5; i++ {
				if _, ok := g.PredictAndUpdate(pc, i != 4); ok {
					correct++
				}
			}
		}
		return correct
	}
	warm(40)
	if got := warm(20); got != 100 {
		t.Errorf("loop pattern: %d/100 correct after warmup", got)
	}
}

func TestAccuracyCounters(t *testing.T) {
	g := NewGshare(8)
	g.PredictAndUpdate(0, true)
	g.PredictAndUpdate(0, true)
	if g.Lookups != 2 {
		t.Errorf("lookups = %d, want 2", g.Lookups)
	}
	if acc := g.Accuracy(); acc < 0 || acc > 1 {
		t.Errorf("accuracy = %g outside [0,1]", acc)
	}
	g.Reset()
	if g.Lookups != 0 || g.Correct != 0 || g.Accuracy() != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestHistoryDistinguishesPaths(t *testing.T) {
	// Two branches with identical PCs but different histories must index
	// different counters once histories diverge; exercise via a branch
	// whose outcome equals the previous branch's outcome.
	g := NewGshare(10)
	prev := true
	correct, total := 0, 0
	for i := 0; i < 400; i++ {
		outcome := prev
		_, ok := g.PredictAndUpdate(0x99, outcome)
		if i > 200 {
			total++
			if ok {
				correct++
			}
		}
		prev = i%3 == 0 // the driving sequence has period 3
	}
	if float64(correct)/float64(total) < 0.95 {
		t.Errorf("correlated branch accuracy %d/%d, want >= 95%%", correct, total)
	}
}

func TestDefaultConfiguration(t *testing.T) {
	g := Default()
	if n := 4 * len(g.table); n != 1<<16 {
		t.Errorf("default table has %d counters, want 64K", n)
	}
}
