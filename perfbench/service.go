package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/fleet"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/load"
	"valuespec/internal/obs"
	"valuespec/internal/obsweb"
)

const (
	// offeredRate is service_mix's open-loop rate: well under the capacity
	// of a two-vCPU host, so latency is measured without a growing queue.
	offeredRate = 100 // operations per second
	// senders is how many requests the generator keeps in flight, and so
	// the most keep-alive connections it opens.
	senders = 2
	// jobWorkers is vserved's default -workers.
	jobWorkers = 2
	// maxCyclesBase is the simulator's own cycle bound; adding a per-job
	// nonce makes each tiny job a distinct request without changing what it
	// simulates (the uniqueness trick of internal/load's SpecSource).
	maxCyclesBase = int64(1) << 40
)

// hotPool is the Great I/R Fig. 3 spec of every kernel at default scale,
// each submitted as its own one-spec job.
func hotPool() []jobs.SimSpec {
	var out []jobs.SimSpec
	for _, w := range bench.All() {
		m := core.Great()
		out = append(out, jobs.SimSpec{Workload: w.Name, Config: cpu.Config8x48(), Model: &m, Update: "I"})
	}
	return out
}

// tinyGrid is every scale-1 spec a unique job may carry: each kernel but
// xlisp (whose scale 1 is far larger than the rest) under the base machine
// and Fig. 3's model x setting grid on 8/48.
func tinyGrid() []jobs.SimSpec {
	var out []jobs.SimSpec
	for _, w := range bench.All() {
		if w.Name == "xlisp" {
			continue
		}
		out = append(out, jobs.SimSpec{Workload: w.Name, Scale: 1, Config: cpu.Config8x48()})
		for _, m := range core.Presets() {
			for _, set := range harness.PaperSettings() {
				m := m
				out = append(out, jobs.SimSpec{Workload: w.Name, Scale: 1, Config: cpu.Config8x48(),
					Model: &m, Update: set.Update.String(), Oracle: set.Oracle})
			}
		}
	}
	return out
}

// servicePairs is every recording the mix replays.
func servicePairs() []tracePair {
	pairs := kernelPairs(0)
	for _, s := range tinyGrid() {
		w, _ := bench.ByName(s.Workload) // grid names come from bench.All
		p := tracePair{w: w, scale: 1}
		if last := pairs[len(pairs)-1]; last.w.Name != p.w.Name || last.scale != p.scale {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

type opKind uint8

const (
	opHot    opKind = iota // resubmit a hot-pool job: answered from the store
	opUnique               // submit a unique tiny job: executed
	opFetch                // GET a hot job's stored result
)

func (k opKind) String() string {
	return [...]string{"hot", "unique", "fetch"}[k]
}

// op is one generated request.
type op struct {
	kind opKind
	hot  int          // hot-pool index (opHot, opFetch)
	spec jobs.SimSpec // opUnique
}

// genOps draws n operations from seed: half hot resubmissions, a quarter
// unique tiny jobs, a quarter result fetches, shuffled by the seed within
// consecutive blocks of four. Unique jobs walk seeded permutations of the
// tiny grid, so every seed simulates the same mix of work; each carries its
// own MaxCycles nonce.
func genOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for b := 0; b < n; b += 4 {
		// Every block of four holds the mix exactly, in seeded order, so
		// each second of the schedule carries the same load.
		block := ops[b:min(b+4, n)]
		for i := range block {
			block[i].kind = [...]opKind{opHot, opHot, opUnique, opFetch}[i]
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	grid := tinyGrid()
	var perm []int
	nonce := int64(0)
	for i := range ops {
		switch ops[i].kind {
		case opHot, opFetch:
			ops[i].hot = rng.Intn(len(bench.All()))
		case opUnique:
			if len(perm) == 0 {
				perm = rng.Perm(len(grid))
			}
			s := grid[perm[0]]
			perm = perm[1:]
			nonce++
			s.Config.MaxCycles = maxCyclesBase + nonce
			ops[i].spec = s
		}
	}
	return ops
}

// doneWatch passes the daemon's log through to its file and notes every
// job that reaches a terminal state. The "job done"/"job failed"/"job
// canceled" lines are the daemon's only completion signal, so waiting on
// them needs no polling.
type doneWatch struct {
	w       io.Writer
	mu      sync.Mutex
	done    map[string]time.Time
	waiting map[string]chan struct{}
}

func newDoneWatch(w io.Writer) *doneWatch {
	return &doneWatch{w: w, done: make(map[string]time.Time), waiting: make(map[string]chan struct{})}
}

var terminalMsgs = [][]byte{[]byte(`msg="job done"`), []byte(`msg="job failed"`), []byte(`msg="job canceled`)}

func (d *doneWatch) Write(p []byte) (int, error) {
	for _, m := range terminalMsgs {
		if bytes.Contains(p, m) {
			d.note(string(logField(p, "job")))
			break
		}
	}
	return d.w.Write(p)
}

func (d *doneWatch) note(id string) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.done[id] = now
	if ch, ok := d.waiting[id]; ok {
		close(ch)
		delete(d.waiting, id)
	}
}

// logField extracts key=value from one text-format log line.
func logField(line []byte, key string) []byte {
	i := bytes.Index(line, []byte(" "+key+"="))
	if i < 0 {
		return nil
	}
	v := line[i+len(key)+2:]
	if j := bytes.IndexAny(v, " \n"); j >= 0 {
		v = v[:j]
	}
	return v
}

// wait blocks until every id has reached a terminal state and returns when
// the last of them did.
func (d *doneWatch) wait(ctx context.Context, ids []string) (time.Time, error) {
	var last time.Time
	for _, id := range ids {
		d.mu.Lock()
		at, ok := d.done[id]
		var ch chan struct{}
		if !ok {
			ch = d.waiting[id]
			if ch == nil {
				ch = make(chan struct{})
				d.waiting[id] = ch
			}
		}
		d.mu.Unlock()
		if !ok {
			select {
			case <-ch:
			case <-ctx.Done():
				return last, fmt.Errorf("waiting for job %s: %w", id, ctx.Err())
			}
			d.mu.Lock()
			at = d.done[id]
			d.mu.Unlock()
		}
		if at.After(last) {
			last = at
		}
	}
	return last, nil
}

// daemon is the job service wired in-process the way cmd/vserved wires it
// by default: two job workers, span tracing, metrics, info logs to a file
// and the fleet coordinator mounted, served on a loopback listener.
type daemon struct {
	svc    *jobs.Service
	coord  *fleet.Coordinator
	srv    *obsweb.Server
	reg    *obs.SharedRegistry
	tracer *obs.Tracer
	log    *os.File
	watch  *doneWatch
	base   string
}

func openDaemon(dir string, spans int, simulate jobs.SimulateFunc, tracePhases bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "vserved.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{log: logf, watch: newDoneWatch(logf), reg: obs.NewSharedRegistry(), tracer: obs.NewTracer(spans)}
	logger, err := obs.NewLogger(d.watch, "info", "text")
	if err != nil {
		logf.Close()
		return nil, err
	}
	d.svc, err = jobs.Open(jobs.Config{
		DataDir:     filepath.Join(dir, "data"),
		Workers:     jobWorkers,
		MaxRetries:  2,
		Metrics:     d.reg,
		Tracer:      d.tracer,
		Logger:      logger,
		TracePhases: tracePhases,
		Simulate:    simulate,
	})
	if err != nil {
		logf.Close()
		return nil, err
	}
	d.coord = fleet.NewCoordinator(fleet.CoordinatorConfig{
		Service: d.svc, Metrics: d.reg, LeaseTTL: fleet.DefaultLeaseTTL, Logger: logger,
	})
	d.srv = obsweb.New(obsweb.Config{
		Metrics:  d.reg,
		Progress: func() any { return d.coord.Snapshot() },
		Jobs:     d.svc.Handler(),
		Fleet:    d.coord.Handler(),
		Tracer:   d.tracer,
		Logger:   logger,
	})
	if err := d.srv.Start(nil, "127.0.0.1:0"); err != nil {
		d.svc.Close()
		logf.Close()
		return nil, err
	}
	d.svc.Start()
	d.coord.Start()
	d.base = "http://" + d.srv.Addr()
	return d, nil
}

// close stops the daemon in vserved's shutdown order and waits for it.
func (d *daemon) close() {
	d.coord.Close()
	d.svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // best effort: the run is over either way
	d.log.Close()
}

// httpClient is the generator's client: one keep-alive transport that never
// holds more than senders connections.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders},
	}
}

// post submits one encoded request and returns the acknowledgment and when
// the full response had arrived.
func post(c *http.Client, base string, body []byte) (load.SubmitAck, time.Time, error) {
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return load.SubmitAck{}, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	at := time.Now()
	if err != nil {
		return load.SubmitAck{}, at, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return load.SubmitAck{}, at, fmt.Errorf("POST /jobs: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ack load.SubmitAck
	if err := json.Unmarshal(data, &ack); err != nil {
		return ack, at, fmt.Errorf("decoding ack: %w", err)
	}
	return ack, at, nil
}

// get fetches a path and returns its body and when it had fully arrived.
func get(c *http.Client, url string) ([]byte, time.Time, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	at := time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return data, at, err
}

func encodeRequest(name string, s jobs.SimSpec) []byte {
	data, err := json.Marshal(jobs.Request{Name: name, Specs: []jobs.SimSpec{s}})
	if err != nil {
		panic(err) // SimSpec is plain data; encoding cannot fail
	}
	return data
}

// hook is the traced run's jobs.Config.Simulate: harness.SimulateBatch
// with a span per call and cpu.New timed separately for every spec.
type hook struct {
	tr   *obs.Tracer
	mu   sync.Mutex
	runs map[string]hookRun // by spec hash
}

type hookRun struct {
	span      obs.Span
	construct []time.Duration
	stats     []cpu.Stats // copies: a *Stats would pin its whole pipeline
	phases    []obs.PhaseStat
}

func (h *hook) simulate(ctx context.Context, specs []harness.Spec, progress *harness.Progress) ([]harness.Result, error) {
	var construct []time.Duration
	req := jobs.Request{}
	for _, s := range specs {
		if d, err := timeConstruct(s); err == nil {
			construct = append(construct, d)
		}
		plain := s
		plain.Phases = false
		if ss, err := jobs.FromHarness(plain); err == nil {
			req.Specs = append(req.Specs, ss)
		}
	}
	hash, _ := req.Hash() // the daemon validated these specs already
	t0 := time.Now()
	res, err := harness.SimulateBatch(ctx, specs, progress)
	t1 := time.Now()
	h.tr.Emit("simulate", "simulate", t0, t1, obs.SpanAttr{Key: "spec_hash", Value: hash})
	h.mu.Lock()
	defer h.mu.Unlock()
	run := hookRun{span: obs.Span{Name: "simulate", Start: t0.UnixNano(), End: t1.UnixNano()}, construct: construct}
	for _, r := range res {
		if r.Stats != nil {
			run.stats = append(run.stats, *r.Stats)
		}
		run.phases = append(run.phases, r.Phases...)
	}
	h.runs[hash] = run
	return res, err
}

// run returns the recorded call for one spec hash.
func (h *hook) run(hash string) (hookRun, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.runs[hash]
	return r, ok
}

// sent is the outcome of one generated request.
type sent struct {
	timing
	ack load.SubmitAck
	err error
}

// serviceRun is one run of service_mix, set-up to report.
type serviceRun struct {
	cfg    runConfig
	rep    *report
	or     *oracle
	hot    []jobs.SimSpec
	pairs  []tracePair
	client *http.Client
	tr     *obs.Tracer // nil when untraced
	hook   *hook       // nil when untraced

	d       *daemon
	hotIDs  []string
	hotRefs [][]byte // the verified result body of each hot job
	rec     recording

	ops      []op
	out      []sent
	measured window
	retired  int64         // by the unique jobs
	runTime  time.Duration // the unique jobs' summed server-side run time
	jobRates []float64     // each unique job's Minst per server-side second
	doneMS   []float64
	byHash   map[string]string // unique job id by spec hash
}

// counters is what the measured phase is bracketed by.
type counters struct {
	commits      uint64
	http         map[int64]uint64
	hits, misses int64
}

func (r *serviceRun) counters() counters {
	c := harness.DefaultTraceCache()
	return counters{commits: r.d.svc.Snapshot().JournalCommits, http: httpHistogram(r.d.reg),
		hits: c.Hits(), misses: c.Misses()}
}

// runService is one untraced or traced run of service_mix.
func runService(cfg runConfig, rep *report) error {
	or, err := loadOracle()
	if err != nil {
		return err
	}
	r := &serviceRun{cfg: cfg, rep: rep, or: or, hot: hotPool(), pairs: servicePairs(), client: newHTTPClient()}
	defer r.client.CloseIdleConnections()
	if cfg.trace {
		r.tr = obs.NewTracer(traceSpans)
		r.hook = &hook{tr: r.tr, runs: make(map[string]hookRun)}
	}
	runDir := filepath.Join(cfg.work, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	defer func() {
		if r.d != nil {
			r.d.close()
		}
	}()
	if err := r.setup(runDir); err != nil {
		return err
	}
	if err := r.verifyHot(); err != nil {
		return err
	}
	before := r.counters()
	r.measure()
	after := r.counters()
	if err := r.check(); err != nil {
		return err
	}
	r.endToEnd()
	if cfg.trace {
		return r.layers(before, after)
	}
	return nil
}

// traceSpans sizes the span rings of a traced run to hold all of it.
const traceSpans = 1 << 15

// setup repeats the set-up setupReps times from a cold start: a fresh
// daemon on a fresh data directory, every recording the mix replays, then
// the hot pool run through the daemon as one-spec jobs. The last daemon
// serves the measured phase.
func (r *serviceRun) setup(runDir string) error {
	spans := obs.DefaultTracerSpans
	var simulate jobs.SimulateFunc
	if r.hook != nil {
		spans, simulate = traceSpans, r.hook.simulate
	}
	hotBodies := make([][]byte, len(r.hot))
	for i, s := range r.hot {
		hotBodies[i] = encodeRequest(fmt.Sprintf("perfbench hot %d", i), s)
	}
	cache := harness.DefaultTraceCache()
	var reps []window
	for i := 0; i < setupReps; i++ {
		if r.d != nil {
			r.d.close()
			r.d = nil // let coldStart reclaim the previous set-up
		}
		r.client.CloseIdleConnections()
		coldStart()
		u0 := readUsage()
		n0 := cache.CachedRecords()
		d, err := openDaemon(filepath.Join(runDir, fmt.Sprint(i)), spans, simulate, r.hook != nil)
		if err != nil {
			return err
		}
		r.d = d
		rd, err := recordPairs(r.pairs, r.tr)
		if err != nil {
			return err
		}
		r.hotIDs = r.hotIDs[:0]
		for _, body := range hotBodies {
			ack, _, err := post(r.client, d.base, body)
			if err != nil {
				return fmt.Errorf("set-up: submitting the hot pool: %w", err)
			}
			r.hotIDs = append(r.hotIDs, ack.ID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		_, err = d.watch.wait(ctx, r.hotIDs)
		cancel()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		reps = append(reps, window{u0, readUsage()})
		r.rec.records = cache.CachedRecords() - n0
		r.rec.totalRec += r.rec.records
		r.rec.recordNS += rd
	}
	runtime.GC()
	r.rep.setup(reps)
	return nil
}

// verifyHot checks the stored hot results against the oracle, untimed;
// their bodies are what every measured fetch must return.
func (r *serviceRun) verifyHot() error {
	r.hotRefs = make([][]byte, len(r.hot))
	for i, id := range r.hotIDs {
		body, _, err := get(r.client, r.d.base+"/jobs/"+id+"/result")
		if err != nil {
			return fmt.Errorf("set-up: fetching hot result: %w", err)
		}
		st := resultStats(body)
		if err := r.or.check(specLabel(r.hot[i]), st); err != nil {
			return fmt.Errorf("set-up: hot pool: %w", err)
		}
		if i == 0 {
			if err := r.or.selfTest(specLabel(r.hot[i]), st); err != nil {
				r.rep.selfTestFailed(err)
			}
		}
		r.hotRefs[i] = body
	}
	return nil
}

// measure runs the open loop at offeredRate over at most senders
// connections, each request timed from its due time, then waits (on the
// daemon's log, without polling) until every unique job has finished. The
// measured window ends at the last response or job completion.
func (r *serviceRun) measure() {
	n := offeredRate * int(r.cfg.seconds/time.Second)
	r.ops = genOps(r.cfg.seed, n)
	bodies := make([][]byte, n)
	for i, o := range r.ops {
		switch o.kind {
		case opHot:
			bodies[i] = encodeRequest(fmt.Sprintf("perfbench hot %d", o.hot), r.hot[o.hot])
		case opUnique:
			bodies[i] = encodeRequest(fmt.Sprintf("perfbench unique %d", i), o.spec)
		}
	}
	r.out = make([]sent, n)
	base := r.d.base
	m0 := readUsage()
	timings := openLoop(m0.wall, n, time.Second/offeredRate, senders, func(i int) time.Time {
		o, op := &r.out[i], r.ops[i]
		var at time.Time
		switch op.kind {
		case opHot, opUnique:
			o.ack, at, o.err = post(r.client, base, bodies[i])
		case opFetch:
			var body []byte
			body, at, o.err = get(r.client, base+"/jobs/"+r.hotIDs[op.hot]+"/result")
			if o.err == nil && !bytes.Equal(body, r.hotRefs[op.hot]) {
				o.err = errors.New("fetched result differs from the verified hot result")
			}
		}
		return at
	})
	end := m0.wall
	var unique []string
	for i, t := range timings {
		r.out[i].timing = t
		if t.at.After(end) {
			end = t.at
		}
		if r.ops[i].kind == opUnique && r.out[i].err == nil {
			unique = append(unique, r.out[i].ack.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	last, err := r.d.watch.wait(ctx, unique)
	cancel()
	m1 := readUsage()
	if err != nil {
		r.rep.errs = append(r.rep.errs, "drain: "+err.Error())
	}
	if last.After(end) {
		end = last
	}
	m1.wall = end
	r.measured = window{m0, m1}
	r.rep.measured(r.measured)
}

// check verifies the run untimed: every acknowledged submission
// reconciles to exactly one terminal job (load.Reconcile), hot
// resubmissions were answered from the store, and every unique job's
// stored result matches the oracle. Each op counts as failed at most once;
// reconciliation violations count on top.
func (r *serviceRun) check() error {
	fails := make([]bool, len(r.ops))
	failOp := func(i int, err error) {
		if !fails[i] {
			fails[i] = true
			r.rep.failed++
			if len(r.rep.errs) < 5 {
				r.rep.errs = append(r.rep.errs, fmt.Sprintf("op %d (%s): %v", i, r.ops[i].kind, err))
			}
		}
	}
	var manifest load.Manifest
	for i, o := range r.out {
		switch {
		case o.err != nil:
			failOp(i, o.err)
			continue
		case r.ops[i].kind == opHot && !o.ack.Deduped:
			failOp(i, errors.New("hot resubmission was executed again instead of answered from the store"))
		case r.ops[i].kind == opUnique && o.ack.Deduped:
			failOp(i, errors.New("unique job was answered from the store"))
		}
		if r.ops[i].kind != opFetch {
			manifest.Entries = append(manifest.Entries, load.Entry{ID: o.ack.ID, SpecHash: o.ack.SpecHash, Deduped: o.ack.Deduped})
		}
	}
	lc := load.NewClient(r.d.base)
	outcome, err := load.Reconcile(context.Background(), lc, manifest, 60*time.Second, true, nil)
	if err != nil {
		return fmt.Errorf("reconcile: %w", err)
	}
	for _, v := range outcome.Violations {
		r.rep.failed++
		r.rep.errs = append(r.rep.errs, "reconcile: "+v)
	}
	r.rep.notef("reconcile: %d done, %d dedup hits, %d failed, %d lost, %d unfinished, %d violations",
		outcome.Done, outcome.DedupHits, outcome.Failed, outcome.Lost, outcome.Unfinished, len(outcome.Violations))

	summaries, err := lc.Summaries()
	if err != nil {
		return fmt.Errorf("reading the job listing: %w", err)
	}
	byID := make(map[string]jobs.JobSummary, len(summaries))
	for _, s := range summaries {
		byID[s.ID] = s
	}
	r.byHash = make(map[string]string)
	for i, o := range r.out {
		if r.ops[i].kind != opUnique || o.err != nil {
			continue
		}
		r.byHash[o.ack.SpecHash] = o.ack.ID
		s := byID[o.ack.ID]
		if s.State != jobs.StateDone {
			failOp(i, fmt.Errorf("job %s is %q after the drain", o.ack.ID, s.State))
			continue
		}
		rs, err := r.d.svc.Result(o.ack.ID)
		if err != nil || len(rs.Results) != 1 {
			failOp(i, fmt.Errorf("job %s: result unreadable: %v", o.ack.ID, err))
			continue
		}
		if err := r.or.check(specLabel(r.ops[i].spec), rs.Results[0].Stats); err != nil {
			failOp(i, err)
			continue
		}
		run := s.FinishedAt.Sub(s.StartedAt)
		r.retired += rs.Results[0].Stats.Retired
		r.runTime += run
		r.jobRates = append(r.jobRates, float64(rs.Results[0].Stats.Retired)/run.Seconds()/1e6)
		r.doneMS = append(r.doneMS, float64(s.FinishedAt.Sub(o.due))/float64(time.Millisecond))
	}
	r.rep.attempted = len(r.ops)
	return nil
}

// endToEnd reports the gated metrics plus the service latencies, each as a
// median, p90 and p99 with their sample counts (a percentile with fewer than
// ten samples beyond it is printed as refused).
func (r *serviceRun) endToEnd() {
	var ackMS, fetchMS []float64
	for i, o := range r.out {
		if o.err != nil {
			continue
		}
		ms := float64(o.at.Sub(o.due)) / float64(time.Millisecond)
		if r.ops[i].kind == opFetch {
			fetchMS = append(fetchMS, ms)
		} else {
			ackMS = append(ackMS, ms)
		}
	}
	e2e := r.rep.e2e
	// At a fixed offered rate this only says whether the daemon kept up:
	// the seed and the rate fix it while the daemon keeps up, whatever the
	// simulator's speed. The server-side rate printed below does move with
	// the simulator, but the host's steal moves it too much to gate
	// (NOTES.md, End-to-end metrics).
	e2e["sim_minst_per_s"] = metric{float64(r.retired) / r.measured.wall().Seconds() / 1e6, "Minst/s"}
	e2e["cpu_us_per_op"] = metric{r.measured.cpuPerOp(len(r.ops) - r.rep.failed), "us"}
	for _, l := range []struct {
		name string
		vals []float64
	}{{"ack_ms", ackMS}, {"done_ms", r.doneMS}, {"fetch_ms", fetchMS}} {
		p50 := percentile(l.vals, 0.5)
		e2e[l.name+"_p50"] = metric{p50.Value, "ms"}
		r.rep.notef("%s: %s, %s, %s", l.name, p50, percentile(l.vals, 0.9), percentile(l.vals, 0.99))
	}
	r.rep.notef("measured: %d ops offered at %d/s over %d connections in %.3f s (%d hot, %d unique, %d fetch); op = one request",
		len(r.ops), offeredRate, senders, r.measured.wall().Seconds(),
		countKind(r.ops, opHot), countKind(r.ops, opUnique), countKind(r.ops, opFetch))
	r.rep.notef("unique jobs: %d retired instructions in %.3f s of server-side run time: %.4f Minst/s, median job %.4f Minst/s (not gated)",
		r.retired, r.runTime.Seconds(), float64(r.retired)/r.runTime.Seconds()/1e6, median(r.jobRates))
}

// layers reports the traced run's per-layer metrics: the service layers
// from spans and counters, the simulator layers from the simulate hook.
func (r *serviceRun) layers(before, after counters) error {
	layer := r.rep.layer
	var lag []float64
	acks, deduped := 0, 0
	for i, o := range r.out {
		lag = append(lag, float64(o.lag)/float64(time.Millisecond))
		if o.err == nil && r.ops[i].kind != opFetch {
			acks++
			if o.ack.Deduped {
				deduped++
			}
		}
	}
	layer["load.lag_ms_max"] = metric{maxOf(lag), "ms"}
	layer["jobs.dedup_frac"] = metric{ratio(int64(deduped), int64(acks)), "ratio"}
	layer["jobs.journal_commits_per_job"] = metric{ratio(int64(after.commits-before.commits), int64(acks)), "commits"}
	layer["obsweb.server_ms_p50"] = metric{histDeltaQuantile(before.http, after.http, 0.5) / 1000, "ms"}
	layer["harness.cache_hit_frac"] = metric{ratio(after.hits-before.hits, after.hits-before.hits+after.misses-before.misses), "ratio"}

	// The daemon's spans, the client's and the simulate hook's, on one
	// track per job.
	measured := make(map[string]bool)
	for i, o := range r.out {
		if o.err != nil {
			continue
		}
		id := o.ack.ID
		if r.ops[i].kind == opFetch {
			id = r.hotIDs[r.ops[i].hot]
		} else {
			measured[id] = true
		}
		r.tr.Emit(id, "client."+r.ops[i].kind.String(), o.due, o.at)
	}
	all := append(r.d.tracer.Spans(""), r.tr.Spans("")...)
	for i := range all {
		if h, ok := all[i].Attr("spec_hash"); ok && all[i].Name == "simulate" && r.byHash[h] != "" {
			all[i].Track = r.byHash[h]
		}
	}
	byTrack := make(map[string][]obs.Span)
	for _, s := range all {
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for id := range measured {
		track := byTrack[id]
		for _, s := range track {
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
			var kids []obs.Span
			for _, c := range track {
				if childOf(s.Name, c.Name) {
					kids = append(kids, c)
				}
			}
			if len(kids) > 0 {
				selfs[s.Name] = append(selfs[s.Name], float64(selfTime(s, kids))/1e6)
			}
		}
	}
	for _, name := range []string{jobs.SpanSubmit, jobs.SpanQueueWait, jobs.SpanRun, jobs.SpanStore, "simulate"} {
		layer["jobs."+name+"_ms_p50"] = metric{percentile(durs[name], 0.5).Value, "ms"}
	}
	for _, name := range []string{"client.hot", "client.unique", jobs.SpanRun, jobs.SpanJob} {
		r.rep.notef("self time %-13s %s (span minus the union of its children)", name, percentile(selfs[name], 0.5))
	}
	if n := r.d.tracer.Dropped(); n > 0 {
		r.rep.notef("spans: the daemon's ring overwrote %d spans", n)
	}

	// The simulator layers, over the unique jobs of the measured phase.
	var st cpu.Stats
	var simDur, construct []time.Duration
	var simTime time.Duration
	phases := make(map[string]time.Duration)
	for h := range r.byHash {
		run, ok := r.hook.run(h)
		if !ok {
			continue
		}
		d := time.Duration(run.span.End - run.span.Start)
		simDur = append(simDur, d)
		simTime += d
		construct = append(construct, run.construct...)
		for i := range run.stats {
			addStats(&st, &run.stats[i])
		}
		for _, ph := range run.phases {
			phases[ph.Name] += ph.Total
		}
	}
	ms := durMS(simDur)
	layer["harness.spec_ms_p50"] = metric{percentile(ms, 0.5).Value, "ms"}
	layer["harness.spec_ms_max"] = metric{maxOf(ms), "ms"}
	layer["harness.pool_busy_frac"] = metric{float64(simTime) / (jobWorkers * float64(r.measured.wall())), "ratio"}
	layer["cpu.construct_us"] = metric{percentile(durMS(construct), 0.5).Value * 1000, "us"}
	cpuLayer(r.rep, &st, simTime, phases)
	if err := componentCosts(r.rep, r.pairs, r.rec); err != nil {
		return err
	}
	r.rep.writeSpans(all)
	return nil
}

// childOf says which daemon and client spans nest inside which on a job's
// track.
func childOf(parent, child string) bool {
	switch parent {
	case "client.hot", "client.unique":
		return child == jobs.SpanSubmit
	case jobs.SpanRun:
		return child == "simulate"
	case jobs.SpanJob:
		return child == jobs.SpanQueueWait || child == jobs.SpanRun || child == jobs.SpanStore
	}
	return false
}

func countKind(ops []op, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return n
}

// resultStats decodes a one-spec result body; nil when it is not one.
func resultStats(body []byte) *cpu.Stats {
	var rs jobs.ResultSet
	if json.Unmarshal(body, &rs) != nil || len(rs.Results) != 1 {
		return nil
	}
	return rs.Results[0].Stats
}

// httpHistogram copies the bucket counts of the middleware's /jobs latency
// histogram (microseconds).
func httpHistogram(reg *obs.SharedRegistry) map[int64]uint64 {
	out := make(map[int64]uint64)
	reg.Do(func(r *obs.Registry) {
		r.Histogram(obsweb.HTTPLatencyMetric("jobs")).Buckets(func(lo, _ int64, n uint64) {
			out[lo] += n
		})
	})
	return out
}

// histDeltaQuantile is the q-quantile (a bucket lower bound) of the samples
// added between two bucket snapshots.
func histDeltaQuantile(before, after map[int64]uint64, q float64) float64 {
	var los []int64
	var total uint64
	for lo, n := range after {
		if d := n - before[lo]; d > 0 {
			los = append(los, lo)
			total += d
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
	rank := uint64(q * float64(total))
	var cum uint64
	for _, lo := range los {
		cum += after[lo] - before[lo]
		if cum > rank {
			return float64(lo)
		}
	}
	return float64(los[len(los)-1])
}
