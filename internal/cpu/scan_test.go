package cpu

import (
	"valuespec/internal/core"
	"valuespec/internal/isa"
)

// The reference core: scanStep is step with each event- and bitset-driven
// stage replaced by a plain walk of the whole window in age order. Writeback
// scans for due completions instead of draining the writeback wheel, the
// sweep visits every entry every cycle, issue re-checks every entry on each
// selection pass, the memory phase tests every load instead of the ones
// loadBits holds, and an invalidation wave tests every entry instead of the
// producers' consumer lists. The stages that have no faster twin — equality
// outcomes, retirement, fetch and dispatch — are shared with step, as is
// each load's access once found. TestEventWakeupMatchesScan holds the two
// byte-identical.

// runScan drives p with scanStep until the window drains or maxCycles
// cycles have run, and returns the statistics.
func runScan(p *Pipeline, maxCycles int64) *Stats {
	for p.cycle < maxCycles && !(p.count == 0 && p.srcDone && p.pending.len() == 0) {
		p.scanStep()
	}
	return &p.stats
}

// scanStep advances the machine one cycle on the reference scans, in step's
// stage order.
func (p *Pipeline) scanStep() {
	c := p.cycle
	occ := p.count
	p.portsUsed = 0
	p.stats.OccupancySum += int64(occ)

	p.wbWheel.take(c) // discarded: writebackScan finds the same completions
	p.writebackScan(c)
	for _, w := range p.waveWheel.take(c) {
		p.waveStepScan(w, c)
		p.putWaveSet(w)
	}
	if roots := p.equalityOutcomes(c); roots != nil {
		p.waveStepScan(roots, c)
		p.putWaveSet(roots)
	}
	p.sweepScan(c)
	p.retire(c)
	p.issueScan(c)
	p.startAccessesScan(c)
	p.fetch(c)

	p.cycle++
	p.stats.Cycles = p.cycle
	if p.telem != nil {
		p.telem.cycleDone(occ, p.stats.Issues)
	}
}

// writebackScan finishes every execution and memory access due at cycle c.
// A resolving branch may squash younger entries, so the bound is re-read on
// every iteration.
func (p *Pipeline) writebackScan(c int64) {
	for i := 0; i < p.count; i++ {
		e := &p.entries[p.slot(i)]
		if e.inFlight && e.inFlightDone == c-1 {
			p.completeExec(e, c)
		}
		if e.cls == isa.ClassLoad && e.memStarted && !e.memDone && e.memDoneAt == c-1 {
			p.completeLoad(e, c)
		}
	}
}

// waveStepScan tests every entry of the window against the wave set w.
func (p *Pipeline) waveStepScan(w *waveSet, c int64) {
	window := make([]int, p.count)
	for i := range window {
		window[i] = p.slot(i)
	}
	p.nullifyWave(w, window, c)
}

// sweepScan syncs every entry's operands and settles its output validity.
func (p *Pipeline) sweepScan(c int64) {
	for i := 0; i < p.count; i++ {
		e := &p.entries[p.slot(i)]
		for o := 0; o < e.nsrc; o++ {
			p.syncOperand(&e.src[o])
		}
		p.refreshOutput(e, c, i)
	}
}

// issueScan performs wakeup and selection with one window walk per
// priority pass: branches and loads first, then the rest, and under the
// paper's scheme non-speculative candidates before speculative ones.
func (p *Pipeline) issueScan(c int64) {
	oldestFirst := p.specOn() && p.model.Selection == core.SelectOldestFirst
	specPasses := 2
	if oldestFirst {
		specPasses = 1
	}
	grants := 0
	for group := 0; group < 2; group++ {
		memCtrl := group == 0
		for specPass := 0; specPass < specPasses && grants < p.cfg.IssueWidth; specPass++ {
			for i := 0; i < p.count && grants < p.cfg.IssueWidth; i++ {
				e := &p.entries[p.slot(i)]
				if (e.cls == isa.ClassBranch || e.cls == isa.ClassLoad) != memCtrl {
					continue
				}
				ok, spec := p.checkIssue(e, c)
				if !ok || (!oldestFirst && spec != (specPass == 1)) {
					continue
				}
				p.grantIssue(e, c)
				grants++
			}
		}
	}
	p.stats.Issues += int64(grants)
}

// startAccessesScan is the memory phase as a walk of the whole window in age
// order: every load whose address is generated and whose access has not
// started may begin it this cycle.
func (p *Pipeline) startAccessesScan(c int64) {
	validOnly := !p.specOn() || p.model.MemResolution == core.ResolveValidOnly
	for i := 0; i < p.count; i++ {
		e := &p.entries[p.slot(i)]
		if e.cls == isa.ClassLoad && e.agDone && c >= e.agCycle && !e.memStarted {
			p.startAccess(e, i, c, validOnly)
		}
	}
}
