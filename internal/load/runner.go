package load

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"valuespec/internal/obs"
)

// Chaos configures the mid-soak kill: at fraction At of the submission
// phase, Restart is invoked — it must terminate its target ungracefully,
// start a fresh replacement, and return the base URL to submit against
// afterwards. The target is the daemon itself (restart over the same data
// directory, new ephemeral port) or, in fleet mode, one worker process (the
// coordinator's URL comes back unchanged and its leases lapse). Submissions
// that fail while the daemon is down are counted as rejected; reconciliation
// then proves that everything acknowledged before the kill still terminates
// exactly once.
type Chaos struct {
	// At is the fraction of the soak at which the kill fires; <= 0 or >= 1
	// selects 0.5.
	At float64
	// Restart kills and restarts the target, returning the base URL.
	Restart func() (string, error)
}

// Config configures a Runner.
type Config struct {
	// Client talks to the daemon under test.
	Client *Client
	// Source generates the submissions.
	Source SpecSource
	// Rate is the target submission rate per second across all submitters;
	// <= 0 means unpaced (as fast as Concurrency allows).
	Rate float64
	// Concurrency is the number of submitter goroutines; <= 0 selects 8.
	Concurrency int
	// Duration is the length of the submission phase. Ignored when Count is
	// set.
	Duration time.Duration
	// Count, when positive, submits exactly this many requests instead of
	// running for Duration (deterministic mode for tests).
	Count int
	// SampleInterval is the queue-depth sampling period; 0 selects 250ms,
	// negative disables sampling.
	SampleInterval time.Duration
	// DrainTimeout bounds how long the drain phase waits for every
	// acknowledged job to reach a terminal state; 0 selects 120s.
	DrainTimeout time.Duration
	// PollInterval is the drain polling period; 0 selects 200ms.
	PollInterval time.Duration
	// VerifyResults re-fetches one stored result per unique content hash
	// during reconciliation and checks the hash matches.
	VerifyResults bool
	// Chaos, when non-nil, kills and restarts the daemon mid-soak.
	Chaos *Chaos
	// Metrics, when non-nil, receives the live load.* series, so an obsweb
	// server over the same registry exposes the soak mid-run: each
	// acknowledged submission's latency and the ack and reject counters as
	// they happen, the queue-depth gauges on every sampling tick.
	Metrics *obs.SharedRegistry
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// Runner drives one soak: paced concurrent submission, queue-depth
// sampling, an optional chaos restart, the drain, and reconciliation.
type Runner struct {
	cfg Config

	mu      sync.Mutex
	entries []Entry
	// submitUS holds each entry's submit latency in µs, at the same index.
	submitUS []int64
	rejected int
	lastErr  error
	depths   []DepthSample
}

// DepthSample is one queue-depth observation.
type DepthSample struct {
	ElapsedMS int64 `json:"elapsed_ms"`
	Depth     int   `json:"depth"`
	Inflight  int   `json:"inflight"`
}

// NewRunner validates cfg and returns a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Client == nil {
		return nil, errors.New("load: Config.Client is required")
	}
	if cfg.Source == nil {
		return nil, errors.New("load: Config.Source is required")
	}
	if cfg.Count <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("load: either Config.Count or Config.Duration must be positive")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 250 * time.Millisecond
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 120 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Chaos != nil {
		if cfg.Chaos.Restart == nil {
			return nil, errors.New("load: Chaos.Restart is required")
		}
		if cfg.Chaos.At <= 0 || cfg.Chaos.At >= 1 {
			cfg.Chaos.At = 0.5
		}
	}
	r := &Runner{cfg: cfg}
	r.registerMetrics()
	return r, nil
}

// Run executes the soak and returns its report. A non-nil error means the
// harness itself could not run (daemon unreachable, context cancelled);
// service-level failures — lost jobs, violated invariants — come back inside
// the report, where SLO evaluation and the CLI turn them into a nonzero
// exit.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if err := r.cfg.Client.Healthy(); err != nil {
		return nil, err
	}

	start := time.Now()
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	if r.cfg.SampleInterval > 0 {
		samplerWG.Add(1)
		go r.sample(start, stop, &samplerWG)
	}

	chaosRestarts, chaosErr := 0, error(nil)
	var chaosWG sync.WaitGroup
	if r.cfg.Chaos != nil && r.cfg.Duration > 0 {
		chaosWG.Add(1)
		delay := time.Duration(float64(r.cfg.Duration) * r.cfg.Chaos.At)
		go func() {
			defer chaosWG.Done()
			select {
			case <-time.After(delay):
			case <-stop:
				return
			}
			r.cfg.Logf("chaos: firing the kill %.1fs into the soak", time.Since(start).Seconds())
			base, err := r.cfg.Chaos.Restart()
			if err != nil {
				chaosErr = fmt.Errorf("load: chaos restart: %w", err)
				return
			}
			r.cfg.Client.SetBase(base)
			chaosRestarts++
			r.cfg.Logf("chaos: target restarted, submitting to %s", base)
		}()
	}

	// Submission phase. Slots are claimed from a shared counter and paced
	// against the global start time, so the target rate holds across all
	// submitters regardless of how individual requests stall.
	var slots counter
	var wg sync.WaitGroup
	deadline := start.Add(r.cfg.Duration)
	for range max(r.cfg.Concurrency, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				slot := slots.next()
				if r.cfg.Count > 0 {
					if slot >= int64(r.cfg.Count) {
						return
					}
				}
				if r.cfg.Rate > 0 {
					due := start.Add(time.Duration(float64(slot) / r.cfg.Rate * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							return
						}
					}
				}
				if r.cfg.Count <= 0 && !time.Now().Before(deadline) {
					return
				}
				r.submitOne()
			}
		}()
	}
	wg.Wait()
	submitSecs := time.Since(start).Seconds()
	chaosWG.Wait()
	close(stop)
	samplerWG.Wait()
	if chaosErr != nil {
		return nil, chaosErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r.mu.Lock()
	entries := append([]Entry(nil), r.entries...)
	submitUS := append([]int64(nil), r.submitUS...)
	rejected, lastErr := r.rejected, r.lastErr
	depths := append([]DepthSample(nil), r.depths...)
	r.mu.Unlock()
	r.cfg.Logf("soak: %d acked, %d rejected in %.1fs; draining %d jobs",
		len(entries), rejected, submitSecs, len(entries))

	rep := &Report{
		Dist:          r.cfg.Source.Name(),
		TargetRate:    r.cfg.Rate,
		Concurrency:   r.cfg.Concurrency,
		SoakSeconds:   round3(submitSecs),
		Acked:         len(entries),
		Rejected:      rejected,
		ChaosRestarts: chaosRestarts,
		Submit:        latencyStats(submitUS),
		Depth:         depths,
	}
	if rejected > 0 && lastErr != nil {
		rep.LastRejectError = lastErr.Error()
	}
	if submitSecs > 0 {
		rep.WritesPerSec = round3(float64(len(entries)) / submitSecs)
	}
	for _, s := range depths {
		if s.Depth > rep.QueueDepthMax {
			rep.QueueDepthMax = s.Depth
		}
	}

	// Drain + reconcile: the durable exactly-once check.
	out, err := reconcile(ctx, r.cfg.Client, entries, reconcileOpts{
		DrainTimeout:  r.cfg.DrainTimeout,
		PollInterval:  r.cfg.PollInterval,
		VerifyResults: r.cfg.VerifyResults,
		Logf:          r.cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	rep.Outcome = *out
	return rep, nil
}

// Entries returns a copy of the acknowledged submissions in ack order: the
// manifest a later Reconcile holds the daemon to.
func (r *Runner) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.entries...)
}

// submitOne generates, submits and records one request.
func (r *Runner) submitOne() {
	req := r.cfg.Source.Next()
	hash, err := req.Hash()
	if err != nil {
		// A generator bug, not a service failure: surface it as a rejection.
		r.reject(err)
		return
	}
	began := time.Now()
	ack, err := r.cfg.Client.Submit(req)
	if err != nil {
		r.reject(err)
		return
	}
	us := time.Since(began).Microseconds()
	if ack.SpecHash != hash {
		r.reject(fmt.Errorf("load: daemon hashed %s, client expects %s", ack.SpecHash, hash))
		return
	}
	r.record(Entry{ID: ack.ID, SpecHash: ack.SpecHash, Deduped: ack.Deduped}, us)
}

// record keeps one acknowledged submission and its submit latency in µs,
// and observes both into Config.Metrics.
func (r *Runner) record(e Entry, us int64) {
	r.mu.Lock()
	r.entries = append(r.entries, e)
	r.submitUS = append(r.submitUS, us)
	r.mu.Unlock()
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Do(func(reg *obs.Registry) {
			reg.Histogram(MetricSubmitUS).Observe(us)
			reg.Counter(MetricAcked).Add(1)
		})
	}
}

func (r *Runner) reject(err error) {
	r.mu.Lock()
	r.rejected++
	r.lastErr = err
	r.mu.Unlock()
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Add(MetricRejected, 1)
	}
}

// sample polls queue depth until stop closes.
func (r *Runner) sample(start time.Time, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(r.cfg.SampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			depth, inflight, ok := r.cfg.Client.QueueDepth()
			if !ok {
				continue
			}
			r.publishDepth(depth, inflight)
			r.mu.Lock()
			r.depths = append(r.depths, DepthSample{
				ElapsedMS: time.Since(start).Milliseconds(),
				Depth:     depth,
				Inflight:  inflight,
			})
			r.mu.Unlock()
		}
	}
}

// counter is a tiny atomic sequence.
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) next() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n++
	return n
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
