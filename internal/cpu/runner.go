package cpu

import "fmt"

// Runner drives a Pipeline in bounded increments. Run is a Runner stepped to
// completion, and a Telemetry sampler takes its interval samples at Step
// boundaries. The termination, cycle-budget and no-progress checks are
// applied per cycle, so a run split into any sequence of Steps produces the
// identical result.
type Runner struct {
	p            *Pipeline
	lastRetired  int64
	lastProgress int64
	done         bool
	err          error
}

// NewRunner returns a resumable driver for p. Drive with Step until it
// reports completion, then read Result. Mixing Step with Run, or creating
// two Runners for one Pipeline, is not supported.
func (p *Pipeline) NewRunner() *Runner { return &Runner{p: p} }

// Step advances the simulation by at most n cycles, returning true once the
// run has finished — the instruction stream drained and the window emptied,
// or the run failed (cycle budget exceeded, no forward progress). Calling
// Step after completion is a no-op returning true.
//
// When a Telemetry sampler is installed, Step splits its increment at the
// sampler's due cycles so interval samples are taken exactly at Step
// boundaries; the per-cycle loop itself never sees the sampler, and with no
// sampler installed the path is unchanged.
func (r *Runner) Step(n int) bool {
	if r.done {
		return true
	}
	t := r.p.telem
	if t == nil {
		return r.stepN(n)
	}
	for n > 0 {
		m := n
		if due := t.nextDue - r.p.cycle; due < int64(m) {
			if due < 1 {
				due = 1
			}
			m = int(due)
		}
		if r.stepN(m) {
			return true
		}
		n -= m
		if r.p.cycle >= t.nextDue {
			t.sample(r.p)
		}
	}
	return false
}

// stepN is the unsampled per-cycle drive loop shared by both Step paths.
func (r *Runner) stepN(n int) bool {
	p := r.p
	for ; n > 0; n-- {
		if p.count == 0 && p.srcDone && p.pending.len() == 0 {
			return r.finish(nil)
		}
		if p.cycle >= p.cfg.MaxCycles {
			return r.finish(fmt.Errorf("cpu: exceeded cycle budget %d", p.cfg.MaxCycles))
		}
		p.step()
		if p.stats.Retired != r.lastRetired {
			r.lastRetired, r.lastProgress = p.stats.Retired, p.cycle
		} else if p.cycle-r.lastProgress > 100000 {
			return r.finish(fmt.Errorf("cpu: no retirement for 100000 cycles at cycle %d (%s)",
				p.cycle, p.dumpHead()))
		}
	}
	return false
}

// finish records the outcome and flushes the observers (the last partial
// telemetry interval is sampled even on error, matching Run).
func (r *Runner) finish(err error) bool {
	r.done, r.err = true, err
	if p := r.p; p.telem != nil {
		p.telem.finishRun(p)
	}
	if p := r.p; p.phases != nil {
		p.phases.End()
	}
	return true
}

// Done reports whether the run has finished.
func (r *Runner) Done() bool { return r.done }

// Result returns the accumulated statistics and the run's outcome. Valid
// once Step has returned true.
func (r *Runner) Result() (*Stats, error) { return &r.p.stats, r.err }
