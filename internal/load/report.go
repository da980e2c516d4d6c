package load

import (
	"fmt"
	"io"
	"slices"
)

// Report is the full outcome of one soak: throughput, latency
// distributions, dedup behavior, queue-depth history, and the
// reconciliation verdict. It marshals to JSON for -report files and renders
// as text for the terminal.
type Report struct {
	Dist        string  `json:"dist"`
	TargetRate  float64 `json:"target_rate"`
	Concurrency int     `json:"concurrency"`
	// SoakSeconds is the measured length of the submission phase.
	SoakSeconds float64 `json:"soak_seconds"`
	// Acked counts submissions the daemon acknowledged; Rejected counts
	// submissions that errored client-side (including the window a chaos
	// restart leaves the daemon dark).
	Acked    int `json:"acked"`
	Rejected int `json:"rejected"`
	// WritesPerSec is Acked / SoakSeconds.
	WritesPerSec    float64 `json:"writes_per_sec"`
	ChaosRestarts   int     `json:"chaos_restarts,omitempty"`
	LastRejectError string  `json:"last_reject_error,omitempty"`
	// Submit is the client-observed POST /jobs latency.
	Submit LatencyStats `json:"submit"`
	// QueueDepthMax is the deepest sampled backlog.
	QueueDepthMax int           `json:"queue_depth_max"`
	Depth         []DepthSample `json:"queue_depth,omitempty"`
	// Outcome is the reconciliation verdict over every acknowledged job.
	Outcome
	// SLOViolations is filled by the caller after Evaluate, so a -report
	// file carries the final verdict too.
	SLOViolations []string `json:"slo_violations,omitempty"`
}

// Clean reports whether the run satisfied every invariant and SLO
// threshold.
func (r *Report) Clean() bool {
	return len(r.Violations) == 0 && len(r.SLOViolations) == 0
}

// Format renders the report for the terminal.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "vsload report: %s distribution, %.1fs soak, %d submitters, target %.0f/s\n",
		r.Dist, r.SoakSeconds, r.Concurrency, r.TargetRate)
	fmt.Fprintf(w, "  submissions  %d acked, %d rejected, %.1f writes/sec\n",
		r.Acked, r.Rejected, r.WritesPerSec)
	if r.LastRejectError != "" {
		fmt.Fprintf(w, "               last reject: %s\n", r.LastRejectError)
	}
	if r.ChaosRestarts > 0 {
		fmt.Fprintf(w, "  chaos        %d kill-restart(s) mid-soak\n", r.ChaosRestarts)
	}
	fmt.Fprintf(w, "  dedup        %d hits (rate %.3f), %d unique content hashes\n",
		r.DedupHits, r.DedupRate, r.UniqueHashes)
	fmt.Fprintf(w, "  outcomes     done %d, failed %d, canceled %d, lost %d, unfinished %d\n",
		r.Done, r.Failed, r.Canceled, r.Lost, r.Unfinished)
	fmt.Fprintf(w, "  submit ms    p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%d)\n",
		r.Submit.P50MS, r.Submit.P95MS, r.Submit.P99MS, r.Submit.MaxMS, r.Submit.Count)
	fmt.Fprintf(w, "  e2e ms       p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%d executed)\n",
		r.E2E.P50MS, r.E2E.P95MS, r.E2E.P99MS, r.E2E.MaxMS, r.E2E.Count)
	final := 0
	if n := len(r.Depth); n > 0 {
		final = r.Depth[n-1].Depth
	}
	fmt.Fprintf(w, "  queue depth  max %d, final %d (%d samples)\n",
		r.QueueDepthMax, final, len(r.Depth))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION    %s\n", v)
	}
	for _, v := range r.SLOViolations {
		fmt.Fprintf(w, "  SLO BREACH   %s\n", v)
	}
	if r.Clean() {
		fmt.Fprintf(w, "  verdict      OK: every acknowledged job terminated exactly once\n")
	} else {
		fmt.Fprintf(w, "  verdict      FAIL: %d invariant violation(s), %d SLO breach(es)\n",
			len(r.Violations), len(r.SLOViolations))
	}
}

// LatencyStats summarizes latency samples for reports, in milliseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// latencyStats summarizes microsecond samples in milliseconds, sorting us
// in place. Each percentile is a recorded sample: the one at rank
// floor(q*n) of the sorted samples, clamped to n-1. A negative sample (a
// wall-clock step between two durable timestamps) counts as zero.
func latencyStats(us []int64) LatencyStats {
	n := len(us)
	if n == 0 {
		return LatencyStats{}
	}
	var sum int64
	for i, v := range us {
		us[i] = max(v, 0)
		sum += us[i]
	}
	slices.Sort(us)
	at := func(q float64) float64 { return float64(us[min(int(q*float64(n)), n-1)]) / 1000 }
	return LatencyStats{
		Count:  uint64(n),
		P50MS:  at(0.50),
		P95MS:  at(0.95),
		P99MS:  at(0.99),
		MaxMS:  at(1),
		MeanMS: round3(float64(sum) / float64(n) / 1000),
	}
}
