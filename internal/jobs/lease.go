package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"valuespec/internal/obs"
)

// Service-level lease orchestration: the one job state machine. The queue
// grants every run as a lease through Queue.Lease — to the daemon's own
// workers, and through LeaseJobs to fleet workers (internal/fleet wraps
// these calls in HTTP) — every run executes under RunSettings, every
// attempt is recorded by RecordAttempt, and every run settles through
// CompleteLeased or FailLeased, fenced by its token, so a job's timeline
// reads identically wherever it ran.

// RunSettings returns how every job runs, in process or on a fleet worker:
// the attempt timeout and whether each spec samples telemetry. The fleet
// coordinator hands both out with each lease.
func (s *Service) RunSettings() (timeout time.Duration, telemetry bool) {
	return s.exec.JobTimeout, s.exec.Telemetry
}

// RecordAttempt records one execution attempt of the named job, wherever
// it ran: one jobs.run_ms sample and a run span from began to ended,
// carrying the job's spec_hash and attempt, then attrs, then cause as its
// error when the attempt failed. The daemon's workers call it as a run
// ends and the fleet coordinator as a worker's report arrives, each before
// settling the job.
func (s *Service) RecordAttempt(id string, began, ended time.Time, cause error, attrs ...obs.SpanAttr) {
	job, ok := s.queue.Get(id)
	if !ok {
		return // the settle reports the unknown job
	}
	s.observe(MetricRunMS, ended.Sub(began).Milliseconds())
	attrs = append([]obs.SpanAttr{
		{Key: "spec_hash", Value: job.SpecHash},
		{Key: "attempt", Value: fmt.Sprint(job.Attempts)},
	}, attrs...)
	if cause != nil {
		attrs = append(attrs, obs.SpanAttr{Key: "error", Value: cause.Error()})
	}
	s.cfg.Tracer.Emit(id, SpanRun, began, ended, attrs...)
}

// LeaseJobs leases up to max pending jobs to worker for ttl, charging one
// attempt each; like Queue.Lease, it waits for work until ctx ends, and
// fails once Close has closed the queue.
func (s *Service) LeaseJobs(ctx context.Context, worker string, max int, ttl time.Duration) ([]Job, error) {
	leased, err := s.queue.Lease(ctx, worker, max, ttl)
	if err != nil {
		return leased, err
	}
	for _, job := range leased {
		s.granted(job)
		s.cfg.Logger.Info("job leased",
			"job", job.ID, "spec_hash", job.SpecHash,
			"worker", worker, "attempt", job.Attempts, "expires", job.LeaseExpiry)
	}
	if len(leased) > 0 {
		s.publish()
	}
	return leased, nil
}

// granted closes a job's queue-wait interval at its first grant. Retries
// re-enter the queue through ParkLease without a recorded park time, so only
// the initial wait is attributed.
func (s *Service) granted(job Job) {
	if job.Attempts == 1 {
		s.observe(MetricQueueWaitMS, job.StartedAt.Sub(job.SubmittedAt).Milliseconds())
		s.cfg.Tracer.Emit(job.ID, SpanQueueWait, job.SubmittedAt, job.StartedAt,
			obs.SpanAttr{Key: "spec_hash", Value: job.SpecHash})
	}
}

// RenewLeases extends worker's leases on ids by ttl and returns the subset
// actually renewed; the rest are lost (expired and requeued, finished, or
// cancelled) and the worker should abandon them.
func (s *Service) RenewLeases(worker string, ids []string, ttl time.Duration) []string {
	return s.queue.Heartbeat(worker, ids, ttl)
}

// ExpireLeases requeues every lease that lapsed before now and returns the
// requeued jobs; the coordinator's scanner calls it periodically.
func (s *Service) ExpireLeases(now time.Time) []Job {
	requeued := s.queue.ExpireLeases(now)
	for _, job := range requeued {
		s.cfg.Logger.Warn("lease expired, job requeued",
			"job", job.ID, "spec_hash", job.SpecHash, "err", job.Error)
	}
	if len(requeued) > 0 {
		s.publish()
	}
	return requeued
}

// Leased counts jobs currently out under a fleet worker's lease.
func (s *Service) Leased() int { return s.queue.Leased() }

// CompleteLeased stores the computed results and marks the job done, fenced
// by the lease token: a stale token (the lease expired and the job was
// requeued, or the job was cancelled) returns ErrStaleLease and the results
// are discarded. The store write happens first — it is content-addressed
// and the simulator deterministic, so even a raced write is byte-identical
// and idempotent.
func (s *Service) CompleteLeased(id, token string, results []SpecResult) (Job, error) {
	job, ok := s.queue.Get(id)
	if !ok {
		return Job{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	if err := checkLease(&job, token); err != nil {
		return job, err
	}
	if len(results) != len(job.Request.Specs) {
		return job, fmt.Errorf("jobs: %d results for %d specs", len(results), len(job.Request.Specs))
	}
	rs := &ResultSet{SpecHash: job.SpecHash, Results: results}
	st := s.cfg.Tracer.Start(job.ID, SpanStore)
	st.Attr("spec_hash", job.SpecHash)
	err := s.store.Put(rs)
	st.End()
	if err != nil {
		return job, err
	}
	done, err := s.queue.CompleteLease(id, token)
	if err != nil {
		return done, err
	}
	s.publish()
	s.cfg.Logger.Info("job done",
		"job", done.ID, "spec_hash", done.SpecHash, "attempt", done.Attempts)
	return done, nil
}

// FailLeased records a failed attempt, fenced by the lease token, and routes
// the job through the retry machinery: parked with exponential backoff
// while the retry budget lasts, failed for good after. Either way the
// attempt writes one journal record.
func (s *Service) FailLeased(id, token string, cause error) (Job, error) {
	if cause == nil {
		cause = errors.New("jobs: worker reported failure")
	}
	job, ok := s.queue.Get(id)
	if !ok {
		return Job{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	if err := checkLease(&job, token); err != nil {
		return job, err
	}
	// Counted before the settle, so a reader who sees the job failed also
	// sees its last attempt's error.
	s.count(MetricAttemptErrors, 1)
	// While token fences the job its attempt count cannot change, so the
	// choice made here holds for the fenced settle below.
	settle := s.queue.FailLease
	if job.Attempts <= s.cfg.MaxRetries {
		settle = s.queue.ParkLease
	}
	job, err := settle(id, token, cause)
	if err != nil {
		return job, err
	}
	if job.State == StateFailed {
		s.publish()
		s.cfg.Logger.Error("job failed",
			"job", job.ID, "spec_hash", job.SpecHash,
			"attempts", job.Attempts, "err", cause)
		return job, nil
	}
	delay := s.cfg.RetryBackoff << (job.Attempts - 1)
	s.mu.Lock()
	if !s.closing { // a closing daemon leaves the parked job to recovery
		s.timers[id] = time.AfterFunc(delay, func() {
			s.mu.Lock()
			delete(s.timers, id)
			s.mu.Unlock()
			s.queue.Release(id)
			s.publish()
		})
	}
	s.mu.Unlock()
	s.count(MetricRetries, 1)
	s.publish()
	s.cfg.Logger.Warn("job attempt failed, retrying",
		"job", job.ID, "spec_hash", job.SpecHash,
		"attempt", job.Attempts, "backoff", delay, "err", cause)
	return job, nil
}
