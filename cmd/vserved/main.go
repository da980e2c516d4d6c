// Command vserved is the simulation job daemon: it serves the internal/jobs
// API over HTTP, executes submitted sweeps on a worker pool, and keeps every
// job and result durable under its data directory, so a restarted daemon
// resumes interrupted work and answers repeated requests from the
// content-addressed result store without re-simulating.
//
// Usage:
//
//	vserved -addr 127.0.0.1:9090 -data ./vserved-data
//	vserved -workers 4 -job-timeout 30m -max-retries 2
//
// Every daemon is also a fleet coordinator: remote workers lease jobs over
// POST /lease, renew with /heartbeat, and return results with /complete and
// /fail (see internal/fleet). Start a stateless worker against it with:
//
//	vserved -worker -coordinator http://127.0.0.1:9090 -capacity 2
//
// A worker holds no durable state — SIGKILL it and its leases lapse, the
// coordinator requeues the jobs, and nothing is lost — and no execution
// settings: every job runs under the coordinator's -job-timeout and
// -telemetry, which each lease carries. Run the coordinator with -workers 0
// to make it a pure scheduler that only remote workers drain.
//
// Endpoints (see docs/SERVICE.md):
//
//	POST   /jobs              submit a batch of simulations
//	GET    /jobs              list jobs (?view=summary, ?offset=&limit=)
//	GET    /jobs/{id}         job status, with live progress while running
//	GET    /jobs/{id}/result  stored Stats as JSON (?format=csv for CSV)
//	GET    /jobs/{id}/trace   the job's span timeline (?format=chrome)
//	DELETE /jobs/{id}         cancel
//	POST   /lease /heartbeat /complete /fail   fleet worker protocol
//	GET    /fleet             fleet snapshot: queue + per-worker state
//	GET    /metrics /progress /trace /healthz /readyz /buildz /debug/pprof/
//
// Logs are structured (log/slog) with job/spec_hash attributes; tune them
// with -log-level and -log-format. Tracing keeps the newest -trace-spans
// spans in memory (0 disables it and removes all tracing overhead).
//
// Submit sweeps from the command line with "vsweep -fig3 -submit URL".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"valuespec/internal/fleet"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
	"valuespec/internal/obsweb"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9090", "listen address (port 0 picks a free one)")
		dataDir     = flag.String("data", "vserved-data", "durable state directory (jobs and results)")
		workers     = flag.Int("workers", 2, "jobs executed concurrently in-process (0 = schedule only; fleet workers still drain)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job execution timeout, fleet runs included (0 = unbounded; a request's timeout_seconds overrides)")
		maxRetries  = flag.Int("max-retries", 2, "re-queues of a failing job before it fails for good")
		cacheBudget = flag.Int64("trace-cache-budget", 0, "byte budget of the shared trace cache (0 = unbounded)")
		traceSpans  = flag.Int("trace-spans", obs.DefaultTracerSpans, "span-ring capacity for job tracing (0 disables tracing)")
		tracePhases = flag.Bool("trace-phases", false, "record per-pipeline-phase wall time on every run span (adds per-cycle clock reads)")
		telemetry   = flag.Bool("telemetry", false, "attach the pipeline instrument to every executed spec, fleet runs included, and store its snapshot (sim.* series + speculation-outcome breakdown) with the results")
		leaseTTL    = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet lease lifetime between worker heartbeats; workers heartbeat every TTL×2/15")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat   = flag.String("log-format", "text", "log encoding: text or json")

		workerMode  = flag.Bool("worker", false, "run as a stateless fleet worker instead of a daemon (requires -coordinator)")
		coordinator = flag.String("coordinator", "", "coordinator base URL for -worker mode (e.g. http://127.0.0.1:9090)")
		workerID    = flag.String("worker-id", "", "fleet identity in -worker mode (default host-pid)")
		capacity    = flag.Int("capacity", 2, "jobs executed concurrently in -worker mode")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vserved:", err)
		os.Exit(2)
	}
	if *cacheBudget > 0 {
		harness.DefaultTraceCache().SetByteBudget(*cacheBudget)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		runWorker(ctx, *coordinator, *workerID, *capacity, logger)
		return
	}

	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(*traceSpans)
	}

	reg := obs.NewSharedRegistry()
	svc, err := jobs.Open(jobs.Config{
		DataDir:     *dataDir,
		Workers:     *workers,
		JobTimeout:  *jobTimeout,
		MaxRetries:  *maxRetries,
		Metrics:     reg,
		Tracer:      tracer,
		Logger:      logger,
		TracePhases: *tracePhases,
		Telemetry:   *telemetry,
	})
	if err != nil {
		logger.Error("opening job service", "err", err)
		os.Exit(1)
	}
	if n := svc.Recovered(); n > 0 {
		logger.Info("recovered interrupted jobs", "jobs", n, "data", *dataDir)
	}

	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Service:  svc,
		Metrics:  reg,
		LeaseTTL: *leaseTTL,
		Logger:   logger,
	})

	srv := obsweb.New(obsweb.Config{
		Metrics:  reg,
		Progress: func() any { return coord.Snapshot() },
		Jobs:     svc.Handler(),
		Fleet:    coord.Handler(),
		Tracer:   tracer,
		Logger:   logger,
	})

	if err := srv.Start(nil, *addr); err != nil {
		logger.Error("listening", "addr", *addr, "err", err)
		os.Exit(1)
	}
	svc.Start()
	coord.Start()
	// The parseable serving line: scripts read the bound address from it.
	fmt.Printf("serving jobs on http://%s (data %s, %d workers)\n", srv.Addr(), *dataDir, *workers)
	logger.Info("serving jobs", "addr", srv.Addr(), "data", *dataDir,
		"workers", *workers, "lease_ttl", *leaseTTL,
		"tracing", tracer.Enabled(), "trace_phases", *tracePhases)

	<-ctx.Done()
	logger.Info("shutting down: interrupting running jobs (they stay queued for the next start)")
	coord.Close()
	svc.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
}
