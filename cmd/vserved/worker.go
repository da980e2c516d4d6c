package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"time"

	"valuespec/internal/fleet"
	"valuespec/internal/obs"
)

// workerOptions carries the -worker mode flags.
type workerOptions struct {
	coordinator string
	id          string
	capacity    int
	jobTimeout  time.Duration
	telemetry   bool
	telemetryIv int64
	logger      *slog.Logger
}

// runWorker runs the stateless fleet worker until ctx is cancelled.
func runWorker(ctx context.Context, o workerOptions) {
	if o.coordinator == "" {
		fmt.Fprintln(os.Stderr, "vserved: -worker requires -coordinator URL")
		os.Exit(2)
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator:       o.coordinator,
		ID:                o.id,
		Capacity:          o.capacity,
		JobTimeout:        o.jobTimeout,
		Telemetry:         o.telemetry,
		TelemetryInterval: o.telemetryIv,
		Metrics:           obs.NewSharedRegistry(),
		Logger:            o.logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vserved:", err)
		os.Exit(2)
	}
	// The parseable worker line: scripts read the identity from it.
	fmt.Printf("worker %s serving coordinator %s (capacity %d)\n", w.ID(), o.coordinator, o.capacity)
	o.logger.Info("worker started",
		"worker", w.ID(), "coordinator", o.coordinator, "capacity", o.capacity)
	_ = w.Run(ctx)
	o.logger.Info("worker stopped", "worker", w.ID())
}
