package obsweb

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"valuespec/internal/cpu"
	"valuespec/internal/fleet"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/load"
	"valuespec/internal/obs"
)

// metricNamePattern is the repo's raw-name convention: lowercase, dotted
// namespaces, underscores inside words. Names matching it sanitize into
// valid Prometheus identifiers (promName maps '.' to '_') without ever
// producing surprise characters, so /metrics cannot drift silently.
var metricNamePattern = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

// TestMetricNameLint walks every metric name the codebase registers — the
// sweep progress tracker, the jobs service, the obsweb middleware and SSE
// counter, the trace cache, and the pipeline instrument's catalog — and asserts
// each obeys the naming convention and that no two distinct names collide
// once sanitized for the exposition.
func TestMetricNameLint(t *testing.T) {
	reg := obs.NewSharedRegistry()

	// Sweep progress: NewProgress pre-registers the full sweep.* set.
	harness.NewProgress(reg)

	// Jobs service: Open's first publish pre-registers the jobs.* set.
	svc, err := jobs.Open(jobs.Config{DataDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// obsweb: the middleware pre-registers http.*; the SSE drop counter and
	// the per-route status-class counters register on first use, so seed
	// them all explicitly.
	srv := New(Config{Metrics: reg})
	defer srv.Shutdown(context.Background())
	reg.SetCounter(MetricSSEDropped, 0)
	for _, route := range instrumentedRoutes {
		for _, class := range []string{"2xx", "3xx", "4xx", "5xx", "other"} {
			reg.Add(HTTPResponseMetric(route, class), 0)
		}
	}

	names := reg.Snapshot().Names()
	names = append(names, harness.DefaultTraceCache().Registry().Names()...)
	var st cpu.Stats
	for _, c := range st.Counters() {
		names = append(names, c.Name)
	}

	// The pipeline instrument: every name of its catalog shares the
	// exposition namespace with the live counters (vsim -serve merges its
	// registry into /metrics, and Progress republishes the quadrants by
	// these names), so they go through the same lint.
	for _, m := range cpu.Catalog() {
		names = append(names, m.Name)
	}
	names = append(names, harness.MetricPredictions)

	// Load-harness live series (mirrored into a registry by load.Runner).
	names = append(names,
		load.MetricSubmitUS, load.MetricAcked, load.MetricRejected,
		load.MetricQueueDepth, load.MetricInflight)

	// Fleet coordinator and worker-push metrics: NewCoordinator
	// pre-registers the fleet.* coordinator set into its registry; the
	// worker-push names travel as heartbeat deltas, so list them here.
	fleetReg := obs.NewSharedRegistry()
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Service: svc, Metrics: fleetReg})
	defer coord.Close()
	names = append(names, fleetReg.Snapshot().Names()...)
	names = append(names,
		fleet.MetricWorkerJobsDone, fleet.MetricWorkerJobsFailed,
		fleet.MetricWorkerSpecsDone, fleet.MetricWorkerCycles,
		fleet.MetricWorkerRunMS)

	if len(names) < 40 {
		t.Fatalf("collected only %d names; a registration path went missing", len(names))
	}

	sanitized := make(map[string]string, len(names))
	for _, name := range names {
		if !metricNamePattern.MatchString(name) {
			t.Errorf("metric %q violates naming convention %s", name, metricNamePattern)
		}
		if strings.Contains(name, "..") || strings.HasSuffix(name, ".") {
			t.Errorf("metric %q has empty namespace segments", name)
		}
		flat := strings.ReplaceAll(name, ".", "_")
		if prev, ok := sanitized[flat]; ok && prev != name {
			t.Errorf("metrics %q and %q collide as %q in the exposition", prev, name, flat)
		}
		sanitized[flat] = name
	}
}
