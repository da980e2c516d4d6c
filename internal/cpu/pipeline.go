package cpu

import (
	"fmt"

	"valuespec/internal/bpred"
	"valuespec/internal/core"
	"valuespec/internal/isa"
	"valuespec/internal/mem"
	"valuespec/internal/obs"
	"valuespec/internal/trace"
)

// eqEvent is a scheduled equality outcome for one execution of one entry.
type eqEvent struct {
	idx   int   // ring index
	age   int64 // entry age (slot-reuse guard)
	token int64 // execution token (nullification guard)
	match bool  // equality matched (verification) or not (invalidation)
}

// Pipeline simulates one program on one processor configuration under one
// speculative-execution model. Create with New (or Reset a spent one), drive
// with Run.
type Pipeline struct {
	cfg   Config
	spec  *SpecOptions
	model core.Model

	hier *mem.Hierarchy
	bp   *bpred.Gshare

	src trace.Source
	// srcRef is src when it is a trace.RefSource (a cached MemorySource
	// and the emulator are): fetch reads each record in place where the
	// source produced it instead of copying 100+ bytes per Next.
	// recScratch backs the same pointer protocol for plain sources.
	srcRef     trace.RefSource
	recScratch trace.Record
	srcDone    bool
	pending    recDeque // replay queue, consumed before src

	entries []entry
	head    int // ring index of the oldest entry
	count   int
	nextAge int64

	regProd    [isa.NumRegs]int
	regProdAge [isa.NumRegs]int64

	cycle       int64
	fetchResume int64 // earliest cycle fetch may proceed
	blockingAge int64 // age of the unresolved mispredicted branch, never if none

	// Event scheduling on timing wheels (wheel.go): slot c&mask holds the
	// events for cycle c, slot slices are recycled in place, and the ring
	// grows when a model latency exceeds the nominal horizon.
	eqWheel   wheel[eqEvent]
	waveWheel wheel[*waveSet]
	wbWheel   wheel[wbEvent]

	// Invalidation-wave state. waveAges guards bitset membership against
	// ring-slot reuse (see waveSet); wavePool recycles the sets; waveMark,
	// waveCand and waveFrontier are scratch space for the consumer walk.
	waveAges     []int64
	wavePool     []*waveSet
	waveMark     []bool
	waveCand     []int
	waveFrontier []int

	waveSetReuses int64 // wave sets served from the pool

	// Wakeup/selection state: the struct-of-arrays window core in soa.go.
	// Occupancy, readiness and settledness are bitset words, and
	// slotAge/slotCls mirror the hot per-slot fields; the stages scan them
	// with bits.TrailingZeros64 in ring (= age) order.
	occBits     []uint64  // slot holds a live entry
	readyBits   []uint64  // wakeup candidates: used && !issued && !inFlight
	blockedBits []uint64  // candidates whose issue gate waits on operand state
	settledBits []uint64  // sweep work provably a no-op until nullify/reuse
	dormantBits []uint64  // sweep work a no-op until a wake (see sweepSeg)
	loadBits    []uint64  // loads still awaiting their memory access
	storeBits   []uint64  // store-occupied slots (memory-ordering scans)
	slotAge     []int64   // entries[i].age mirror (written at dispatch)
	slotCls     []uint8   // entries[i].cls mirror (written at dispatch)
	outViews    []outView // entries[i] broadcast-header mirror (see pubOut)
	slotNextTry []int64   // issue-recheck gate per slot (see checkIssue)

	// Per-cycle selection scratch: the ring indices of this cycle's issue
	// candidates, filed by selection priority (see collectReady) and reused
	// across cycles.
	issueBuckets [4][]int32

	// Model tests the stages would otherwise re-derive on every call,
	// computed once by Reset. The verify* flags select the verification
	// scheme's gating terms in refreshOutput; all are false on the base
	// processor.
	verifyHier    bool
	verifyRetire  bool
	verifyHybrid  bool
	ctrlValidOnly bool // control transfers resolve on valid operands only
	limitedWakeup bool // the third execution waits for valid operands
	fwdSpec       bool // speculative results feed dependents
	oldestFirst   bool // selection ignores operands' speculative state

	portsUsed int // D-cache ports consumed this cycle

	// Work counters: how many entries the per-cycle stages touched over the
	// run. They depend only on the trace, configuration and code, so the
	// whole-simulation benchmarks report them and cmd/benchcheck gates them
	// exactly. They stay out of Stats, whose JSON is part of the results.
	sweepVisits int64 // entries the sweep synced and refreshed
	issueChecks int64 // checkIssue evaluations
	loadVisits  int64 // pending loads the memory phase examined

	obs    Observer
	telem  *Telemetry
	phases *obs.PhaseTimer
	stats  Stats
}

// New builds a pipeline for cfg running the instruction stream src under the
// given speculation options (nil or disabled options simulate the base
// processor). It is Reset on a zero Pipeline.
func New(cfg Config, spec *SpecOptions, src trace.Source) (*Pipeline, error) {
	p := new(Pipeline)
	if err := p.Reset(cfg, spec, src); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset prepares p to run src on cfg under spec, exactly as New builds a
// pipeline: a recycled pipeline produces the same Stats and event stream as
// a fresh one. It reuses the cache hierarchy and the branch predictor when
// their geometry is unchanged, and the window buffers, timing wheels and
// replay deque when their storage fits, clearing all of them; nothing else
// survives from the last run, the observer, telemetry and phase
// timer included. On error p is left as it was.
func (p *Pipeline) Reset(cfg Config, spec *SpecOptions, src trace.Source) error {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return err
	}
	spec = spec.Normalize()
	// The base processor releases resources the cycle after completion; the
	// same release latencies apply when value speculation is off.
	model := core.Model{
		Name: "base",
		Lat:  core.Latencies{VerifyFreeIssue: 1, VerifyFreeRetire: 1},
	}
	if spec != nil {
		model = spec.Model
		if err := model.Validate(); err != nil {
			return err
		}
	}
	old := *p
	*p = Pipeline{
		cfg:          cfg,
		spec:         spec,
		model:        model,
		src:          src,
		pending:      recDeque{buf: old.pending.buf},
		blockingAge:  never,
		eqWheel:      old.eqWheel,
		waveWheel:    old.waveWheel,
		wbWheel:      old.wbWheel,
		waveCand:     old.waveCand[:0],
		waveFrontier: old.waveFrontier[:0],
	}
	for i, b := range old.issueBuckets {
		p.issueBuckets[i] = b[:0]
	}
	on := spec != nil
	p.verifyHier = on && model.Verification == core.VerifyHierarchical
	p.verifyRetire = on && model.Verification == core.VerifyRetirement
	p.verifyHybrid = on && model.Verification == core.VerifyHybrid
	p.ctrlValidOnly = !on || model.BranchResolution == core.ResolveValidOnly
	p.limitedWakeup = on && model.Wakeup == core.WakeupLimited
	p.fwdSpec = !on || model.ForwardSpeculative
	p.oldestFirst = on && model.Selection == core.SelectOldestFirst
	if h := old.hier; h != nil && h.Config() == cfg.Mem {
		h.Reset()
		p.hier = h
	} else {
		p.hier = mem.NewHierarchy(cfg.Mem)
	}
	if g := old.bp; g != nil && g.HistoryBits() == cfg.BranchHistoryBits {
		g.Reset()
		p.bp = g
	} else {
		p.bp = bpred.NewGshare(cfg.BranchHistoryBits)
	}
	p.eqWheel.reset()
	p.waveWheel.reset()
	p.wbWheel.reset()

	n, words := cfg.WindowSize, (cfg.WindowSize+63)/64
	if cap(old.entries) >= n {
		// Keep each slot's consumer-list storage, as dispatch does.
		p.entries = old.entries[:n]
		for i := range p.entries {
			e := &p.entries[i]
			*e = entry{cons: e.cons[:0]}
		}
	} else {
		p.entries = make([]entry, n)
	}
	p.waveAges = recycle(old.waveAges, n)
	p.waveMark = recycle(old.waveMark, n)
	p.occBits = recycle(old.occBits, words)
	p.readyBits = recycle(old.readyBits, words)
	p.blockedBits = recycle(old.blockedBits, words)
	p.settledBits = recycle(old.settledBits, words)
	p.dormantBits = recycle(old.dormantBits, words)
	p.loadBits = recycle(old.loadBits, words)
	p.storeBits = recycle(old.storeBits, words)
	p.slotAge = recycle(old.slotAge, n)
	p.slotCls = recycle(old.slotCls, n)
	p.outViews = recycle(old.outViews, n)
	p.slotNextTry = recycle(old.slotNextTry, n)
	for i := range p.regProd {
		p.regProd[i] = -1
	}
	if rs, ok := src.(trace.RefSource); ok {
		p.srcRef = rs
	}
	return nil
}

// recycle returns s resized to n zero elements, reusing its storage when it
// is large enough.
func recycle[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Detach drops p's references to its source, speculation options and
// observers, so a finished pipeline kept for a later Reset pins nothing of
// the run it simulated. Stats stay readable; running p again takes a Reset.
func (p *Pipeline) Detach() {
	p.spec = nil
	p.src, p.srcRef = nil, nil
	p.obs, p.telem, p.phases = nil, nil, nil
}

// Stats returns the accumulated statistics.
func (p *Pipeline) Stats() *Stats { return &p.stats }

// Hierarchy exposes the cache hierarchy for post-run inspection.
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// Branch exposes the branch predictor for post-run inspection.
func (p *Pipeline) Branch() *bpred.Gshare { return p.bp }

// specOn reports whether value speculation is active.
func (p *Pipeline) specOn() bool { return p.spec != nil }

// slot returns the ring index of the i-th oldest entry (0 = head). i never
// exceeds the window size, so one conditional subtraction replaces the
// modulo — an integer division that showed up in every per-cycle scan.
func (p *Pipeline) slot(i int) int {
	s := p.head + i
	if n := len(p.entries); s >= n {
		s -= n
	}
	return s
}

// ---------------------------------------------------------------------------
// Consumer lists
//
// entry.cons inverts the regProd dependence edges so an invalidation wave
// walks only the registered consumers of the wrong producers instead of
// rescanning the window.

// addConsumer registers the entry at ring index idx as a consumer of the
// producer at ring index prodIdx. Registrations may go stale (the consumer
// reissues, retires, or its slot is reused); users of the list re-verify the
// dependence by age before acting.
func (p *Pipeline) addConsumer(prodIdx, idx int) {
	e := &p.entries[prodIdx]
	for _, c := range e.cons {
		if c == idx {
			return
		}
	}
	e.cons = append(e.cons, idx)
}

// gatherConsumers collects the registered consumers of the producer entries
// at prodIdxs — transitively when transitive is set (flattened invalidation
// closes within the cycle) — deduplicated and sorted by age, so the caller
// visits them in the same order a full-window walk would.
func (p *Pipeline) gatherConsumers(prodIdxs []int, transitive bool) []int {
	cand := p.waveCand[:0]
	frontier := append(p.waveFrontier[:0], prodIdxs...)
	for len(frontier) > 0 {
		pi := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, ci := range p.entries[pi].cons {
			if p.waveMark[ci] {
				continue
			}
			p.waveMark[ci] = true
			cand = append(cand, ci)
			if transitive {
				frontier = append(frontier, ci)
			}
		}
	}
	// Insertion sort by age: candidate lists are small and nearly sorted
	// (consumers register in dispatch order), and unlike sort.Slice this
	// does not allocate in the steady-state loop. slotAge mirrors
	// entries[i].age (stale registrations mirror the same stale value), so
	// the sort touches the dense SoA array instead of whole entry lines.
	for i := 1; i < len(cand); i++ {
		ci, age := cand[i], p.slotAge[cand[i]]
		j := i - 1
		for j >= 0 && p.slotAge[cand[j]] > age {
			cand[j+1] = cand[j]
			j--
		}
		cand[j+1] = ci
	}
	for _, ci := range cand {
		p.waveMark[ci] = false
	}
	p.waveCand, p.waveFrontier = cand, frontier[:0]
	return cand
}

// Run simulates until the instruction stream is drained and the window is
// empty, returning the statistics. It returns an error if the simulation
// exceeds the cycle budget or stops making progress (a modeling bug).
func (p *Pipeline) Run() (*Stats, error) {
	r := p.NewRunner()
	for !r.Step(1 << 20) {
	}
	return r.Result()
}

// Pipeline phase indices for the wall-time profiler; order matches step.
const (
	phWriteback = iota
	phEvents
	phSweep
	phRetire
	phIssue
	phMem
	phFetch
)

// EnablePhaseStats installs (and returns) a wall-time phase timer over the
// simulation stages. Must be called before Run; the instrumented loop pays
// two timestamp reads per stage per cycle, so leave it off except when
// profiling.
func (p *Pipeline) EnablePhaseStats() *obs.PhaseTimer {
	p.phases = obs.NewPhaseTimer("writeback", "events", "sweep", "retire", "issue", "mem", "fetch")
	return p.phases
}

// step advances the machine one cycle.
func (p *Pipeline) step() {
	c := p.cycle
	occ := p.count
	p.portsUsed = 0
	p.stats.OccupancySum += int64(occ)

	if p.phases == nil {
		p.writeback(c)     // finish executions and memory accesses
		p.runEvents(c)     // equality outcomes: verification flags, invalidation waves
		p.sweep(c)         // sync operand views, settle validity (verification network)
		p.retire(c)        // release the oldest completed entries
		p.issue(c)         // wakeup + selection
		p.startAccesses(c) // memory access phase of loads
		p.fetch(c)         // fetch + dispatch
	} else {
		p.stepTimed(c)
	}

	p.cycle++
	p.stats.Cycles = p.cycle
	if p.telem != nil {
		p.telem.cycleDone(occ, p.stats.Issues)
	}
}

// stepTimed is step's stage sequence with a phase-timer transition around
// each stage.
func (p *Pipeline) stepTimed(c int64) {
	t := p.phases
	t.Begin(phWriteback)
	p.writeback(c)
	t.Begin(phEvents)
	p.runEvents(c)
	t.Begin(phSweep)
	p.sweep(c)
	t.Begin(phRetire)
	p.retire(c)
	t.Begin(phIssue)
	p.issue(c)
	t.Begin(phMem)
	p.startAccesses(c)
	t.Begin(phFetch)
	p.fetch(c)
	t.End()
}

// dumpHead describes the oldest entry for deadlock diagnostics.
func (p *Pipeline) dumpHead() string {
	if p.count == 0 {
		return "window empty"
	}
	e := &p.entries[p.head]
	return fmt.Sprintf("head %v issued=%t done=%t clean=%t out=%v validAt=%d src0=%+v",
		e.rec.String(), e.issued, e.doneExec, e.execClean, e.outState, e.validAt, e.src[0])
}

// ---------------------------------------------------------------------------
// Writeback

// wbEvent is a scheduled writeback: the completion of one execution or one
// load access, filed on the writeback wheel when its finish cycle becomes
// known (issue and access start respectively). The (age, token) pair voids
// events whose entry was squashed, nullified or reissued since scheduling.
type wbEvent struct {
	age   int64
	token int64
	idx   int32
	kind  uint8 // wbExec or wbMem
}

const (
	wbExec uint8 = iota // execution completion
	wbMem               // load memory-access completion
	wbWake              // dormant-sweep retry of a time-gated refreshOutput
)

// writeback finishes the executions and memory accesses due at cycle c by
// draining the writeback wheel. Completions take effect in age order, with
// execution completion before access completion per entry, so the drained
// events are insertion-sorted by (age, kind).
func (p *Pipeline) writeback(c int64) {
	evs := p.wbWheel.take(c)
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && (evs[j].age > ev.age || (evs[j].age == ev.age && evs[j].kind > ev.kind)) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
	for i := range evs {
		ev := &evs[i]
		if ev.kind == wbWake {
			// A time-gated sweep retry is due. Clearing the bit is safe even
			// if the slot was reused: a spurious visit changes nothing.
			clearBit(p.dormantBits, int(ev.idx))
			continue
		}
		e := &p.entries[ev.idx]
		if !e.used || e.age != ev.age || e.execToken != ev.token {
			continue // squashed, nullified or reissued since scheduling
		}
		if ev.kind == wbExec {
			if e.inFlight && e.inFlightDone == c-1 {
				p.completeExec(e, c)
			}
		} else if e.cls == isa.ClassLoad && e.memStarted && !e.memDone && e.memDoneAt == c-1 {
			p.completeLoad(e, c)
		}
	}
}

// completeExec finishes the in-flight execution of e at cycle c (the paper's
// write/verification stage).
func (p *Pipeline) completeExec(e *entry, c int64) {
	p.emit(c, EvExecDone, e)
	e.inFlight = false
	e.execClean = e.inFlightClean
	e.doneCycle = c - 1

	if e.cls == isa.ClassLoad {
		// Execution was address generation only; the access is a separate
		// phase, which this cycle's memory phase may start. The output
		// broadcasts at access completion, so the sweep has nothing new to
		// do for the load until then.
		e.agDone = true
		e.agCycle = c
		setBit(p.loadBits, e.idx)
		return
	}
	e.doneExec = true
	if !e.writes && e.execClean {
		p.wakeToSettle(e) // a register writer's broadcast wakes it instead
	}
	switch e.cls {
	case isa.ClassStore:
		// Address generation complete; data flows at retirement.
		e.agDone = true
		e.agCycle = c
		return
	case isa.ClassBranch:
		p.resolveBranch(e, c)
		return
	case isa.ClassJump:
		if e.isCtrl { // JR
			p.resolveBranch(e, c)
			if !e.writes {
				return
			}
		}
	}
	p.broadcast(e, c)
}

// completeLoad finishes the memory access of a load.
func (p *Pipeline) completeLoad(e *entry, c int64) {
	p.emit(c, EvMemAccess, e)
	e.memDone = true
	e.doneExec = true
	e.execClean = e.inFlightClean && e.fwdDataOK
	e.doneCycle = e.memDoneAt
	p.broadcast(e, c)
}

// broadcast publishes e's computed result to consumers at cycle c and, for
// speculated predictions, schedules the equality outcome. After a clean
// execution it wakes e to settle, unless a standing prediction defers that
// to the equality outcome.
func (p *Pipeline) broadcast(e *entry, c int64) {
	if !e.writes {
		return
	}
	if e.vpUsed && !e.vpDead {
		// Consumers keep the predicted value until equality resolves.
		match := e.execClean && e.vpCorrect
		lat := int64(p.model.Lat.ExecEqVerify)
		if !match {
			lat = int64(p.model.Lat.ExecEqInvalidate)
		}
		e.eqReady = c + lat
		p.eqWheel.schedule(c, e.eqReady,
			eqEvent{idx: e.idx, age: e.age, token: e.execToken, match: match})
		return
	}
	e.outCorrect = e.execClean
	e.outReady = c
	if e.outState != core.StateValid {
		e.outState = core.StateSpeculative // sweep upgrades to Valid
	}
	p.pubOut(e)
	if e.execClean {
		p.wakeToSettle(e)
	}
}

// resolveBranch handles the completion of a control-transfer execution.
func (p *Pipeline) resolveBranch(e *entry, c int64) {
	p.emit(c, EvResolve, e)
	e.resolved = true
	e.resolveAt = c
	trustworthy := e.execClean

	if trustworthy {
		if e.specResolve {
			// An earlier speculative resolution was wrong; the valid
			// re-resolution redirects the front end again.
			e.specResolve = false
			p.squashYounger(e.age, c)
			p.fetchResume = c + 1
			if p.blockingAge == e.age {
				p.blockingAge = never
			}
		}
		if e.brMispred && p.blockingAge == e.age {
			// The mispredicted branch is resolved; redirect fetch.
			p.blockingAge = never
			p.fetchResume = c + 1
		}
		return
	}
	// Speculative resolution with wrong operand values (only possible under
	// ResolveSpeculative): the computed direction is wrong.
	if !e.brMispred {
		// gshare was right, but this resolution says otherwise: false
		// redirect. Squash younger work; the valid re-resolution (after the
		// invalidation wave reissues this branch) repairs it.
		e.specResolve = true
		p.squashYounger(e.age, c)
		p.fetchResume = c + 1 // wrong-path fetch resumes (modeled as stall-until-repair)
	}
	// If gshare was wrong too, fetch stays blocked until a valid resolution.
}

// ---------------------------------------------------------------------------
// Equality events and invalidation waves

// runEvents applies the events due at cycle c: first the hierarchical wave
// continuations filed last cycle, then the equality outcomes, whose
// mispredictions seed this cycle's root wave.
func (p *Pipeline) runEvents(c int64) {
	for _, w := range p.waveWheel.take(c) {
		p.waveStep(w, c)
		p.putWaveSet(w)
	}
	if roots := p.equalityOutcomes(c); roots != nil {
		p.waveStep(roots, c)
		p.putWaveSet(roots)
	}
}

// equalityOutcomes applies the equality outcomes due at cycle c. A match
// verifies the prediction; a mismatch kills it, and either squashes the
// younger work (complete invalidation) or joins the returned root wave set,
// which is nil when no wave starts this cycle.
func (p *Pipeline) equalityOutcomes(c int64) *waveSet {
	complete := p.model.Invalidation == core.InvalidateComplete
	var roots *waveSet
	evs := p.eqWheel.take(c)
	for i := range evs {
		ev := &evs[i]
		e := &p.entries[ev.idx]
		if !e.used || e.age != ev.age || e.execToken != ev.token {
			continue // nullified or squashed since scheduling
		}
		if ev.match {
			p.emit(c, EvVerify, e)
			if p.telem != nil {
				p.telem.hists[hVerifyLatency].Observe(c - e.doneCycle)
			}
			e.eqDone = true
			// Expose the computed value (same value, upgradeable state).
			e.outCorrect = e.execClean
			e.outReady = min64(e.outReady, c)
			p.pubOut(e)
			p.wakeToSettle(e)
			continue
		}
		// Misprediction detected: the entry's prediction is dead and its
		// computed value replaces it for consumers.
		p.stats.InvalidationWaves++
		if p.telem != nil {
			p.telem.hists[hInvalidateLatency].Observe(c - e.doneCycle)
		}
		e.eqDone = true
		e.vpDead = true
		e.outState = core.StateSpeculative
		e.outCorrect = e.execClean
		e.outReady = c
		p.pubOut(e)
		if e.execClean {
			p.wakeToSettle(e)
		}
		if complete {
			p.squashYounger(e.age, c)
			p.fetchResume = maxi64(p.fetchResume, c+1)
			continue
		}
		if roots == nil {
			roots = p.getWaveSet()
		}
		p.mark(roots, e)
	}
	return roots
}

// waveStep nullifies the consumers of the producers in the wave set w. It
// walks the producers' registered consumer lists instead of the whole
// window: gatherConsumers returns the (for flattened waves, transitive)
// consumers in age order, the order a full-window walk would test them in.
func (p *Pipeline) waveStep(w *waveSet, c int64) {
	hier := p.model.Invalidation == core.InvalidateHierarchical
	p.nullifyWave(w, p.gatherConsumers(w.idxs, !hier), c)
}

// nullifyWave tests the candidate ring slots cand, in age order, against the
// wave set w and nullifies every entry the wave hits. For parallel
// (flattened) invalidation each hit joins w, so the wave closes transitively
// within the cycle; for hierarchical invalidation each dependence level costs
// a cycle, so the hits seed a continuation event at c+1.
func (p *Pipeline) nullifyWave(w *waveSet, cand []int, c int64) {
	hier := p.model.Invalidation == core.InvalidateHierarchical
	var next *waveSet
	reissue := int64(p.model.Lat.InvalidateReissue)
	nulled := int64(0)
	for _, ci := range cand {
		e := &p.entries[ci]
		if !p.waveHits(w, e) {
			continue
		}
		p.emit(c, EvInvalidate, e)
		p.stats.Nullified++
		nulled++
		e.nullify(c, reissue)
		p.pubOut(e)
		p.setGate(e.idx, 0)
		clearBit(p.settledBits, e.idx)
		clearBit(p.loadBits, e.idx) // the address is generated again
		setBit(p.readyBits, e.idx)
		if hier {
			if next == nil {
				next = p.getWaveSet()
			}
			p.mark(next, e)
		} else {
			p.mark(w, e)
		}
	}
	if p.telem != nil {
		p.telem.hists[hWaveNulls].Observe(nulled)
	}
	if next != nil {
		p.waveWheel.schedule(c, c+1, next)
	}
}

// waveHits reports whether the wave w nullifies e: the entry has consumed a
// value (issued at least once) and one of the values it consumed came from a
// producer in the wave and was wrong.
func (p *Pipeline) waveHits(w *waveSet, e *entry) bool {
	if !e.used {
		return false // stale registration: the consumer's slot was freed
	}
	if !e.issued && !e.doneExec && !e.inFlight {
		return false // never consumed anything; the sweep refreshes its view
	}
	for s := 0; s < e.nsrc; s++ {
		o := &e.src[s]
		if o.inWindow && p.inWave(w, int(o.prodIdx), o.prodAge) && !e.usedCorrect[s] {
			return true
		}
	}
	return e.fwdProdIdx >= 0 && p.inWave(w, e.fwdProdIdx, e.fwdProdAge) && !e.fwdDataOK
}

// squashYounger removes every entry strictly younger than age from the
// window and queues their records for re-dispatch (they are on the correct
// path; complete invalidation refetches them, as does a repaired speculative
// branch resolution). The window is age-ordered, so the squashed entries are
// a suffix; walking it youngest-first pushes each record onto the front of
// the replay deque, which leaves them there in age order, ahead of any
// records already awaiting replay.
func (p *Pipeline) squashYounger(age int64, c int64) {
	squashed := 0
	for p.count > 0 {
		e := &p.entries[p.slot(p.count-1)]
		if e.age <= age {
			break
		}
		p.pending.pushFront(e.rec)
		clearBit(p.readyBits, e.idx)
		clearBit(p.occBits, e.idx)
		clearBit(p.settledBits, e.idx)
		e.used = false
		p.count--
		squashed++
	}
	if squashed == 0 {
		return
	}
	p.stats.CompleteSquashes += int64(squashed)
	if p.blockingAge > age {
		// The blocking mispredicted branch was squashed; it will block
		// again when re-dispatched.
		p.blockingAge = never
	}
	p.rebuildRegProd()
}

func (p *Pipeline) rebuildRegProd() {
	for i := range p.regProd {
		p.regProd[i] = -1
	}
	for i := 0; i < p.count; i++ {
		idx := p.slot(i)
		e := &p.entries[idx]
		if e.writes && e.rec.Instr.Dst != isa.R0 {
			p.regProd[e.rec.Instr.Dst] = idx
			p.regProdAge[e.rec.Instr.Dst] = e.age
		}
	}
}

func min64(a, b int64) int64 {
	if a == never {
		return b
	}
	if a < b {
		return a
	}
	return b
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
