package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"

	"valuespec/internal/fleet"
	"valuespec/internal/obs"
)

// runWorker runs the stateless fleet worker until ctx is cancelled. It has
// no execution flags: each job runs under the timeout and telemetry switch
// its coordinator hands out with the lease.
func runWorker(ctx context.Context, coordinator, id string, capacity int, logger *slog.Logger) {
	if coordinator == "" {
		fmt.Fprintln(os.Stderr, "vserved: -worker requires -coordinator URL")
		os.Exit(2)
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: coordinator,
		ID:          id,
		Capacity:    capacity,
		Metrics:     obs.NewSharedRegistry(),
		Logger:      logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vserved:", err)
		os.Exit(2)
	}
	// The parseable worker line: scripts read the identity from it.
	fmt.Printf("worker %s serving coordinator %s (capacity %d)\n", w.ID(), coordinator, capacity)
	logger.Info("worker started",
		"worker", w.ID(), "coordinator", coordinator, "capacity", capacity)
	_ = w.Run(ctx)
	logger.Info("worker stopped", "worker", w.ID())
}
