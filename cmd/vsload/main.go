// Command vsload is the load-generation, soak and chaos harness for the
// simulation job service: it hammers a running (or self-spawned) vserved
// with tiny synthetic submissions at a target rate, reports writes/sec,
// p50/p95/p99 submit and end-to-end latency, dedup hit rate and queue depth
// over time, verifies that every acknowledged job terminated exactly once
// with the promised content hash, and gates the whole run on a declarative
// SLO spec — exiting nonzero on any violation, like cmd/benchcheck does for
// the simulator hot paths.
//
// Usage:
//
//	vsload -url http://127.0.0.1:9090 -dist hotkey -rate 500 -duration 10s \
//	    -slo SLO_BASELINE.json -manifest soak.manifest.json
//
//	vsload -spawn "vserved -addr 127.0.0.1:0 -data ./d -workers 2" \
//	    -dist uniform -rate 150 -duration 6s -chaos
//
//	vsload -url http://127.0.0.1:9090 -reconcile -manifest soak.manifest.json
//
//	vsload -spawn "vserved -addr 127.0.0.1:0 -data ./d -workers 0" \
//	    -fleet-workers 3 -worker-cmd "vserved -worker -capacity 2" \
//	    -dist uniform -rate 150 -duration 6s -chaos
//
// Distributions: "hotkey" draws from a small pool of duplicate-heavy specs
// (the content-addressed dedup path under contention); "uniform" makes
// every submission unique (the durable queue and worker pool). -chaos (with
// -spawn) SIGKILLs the daemon mid-soak, restarts it over the same data
// directory, and then proves no acknowledged job was lost or double-counted
// across the crash. -fleet-workers N spawns N stateless "vserved -worker"
// processes leasing from the daemon; -chaos then SIGKILLs a worker instead —
// the coordinator requeues its lapsed leases and the same reconciliation
// invariants must hold. See docs/SERVICE.md, "Load testing & SLOs".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/load"
	"valuespec/internal/obs"
	"valuespec/internal/obsweb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// The ready lines of the processes vsload spawns: a daemon prints its base
// URL, a fleet worker its id.
var (
	servingLine = regexp.MustCompile(`serving jobs on (http://\S+)`)
	workerLine  = regexp.MustCompile(`worker (\S+) serving coordinator`)
)

// options is the parsed command line, factored out so tests can drive
// parsing and validation without a process.
type options struct {
	url          string
	spawn        string
	dist         string
	rate         float64
	conc         int
	duration     time.Duration
	count        int
	hotkeys      int
	workload     string
	scale        int
	sloPath      string
	reportPath   string
	manifestPath string
	reconcile    bool
	chaos        bool
	chaosAt      float64
	fleetWorkers int
	workerCmd    string
	drainTimeout time.Duration
	sample       time.Duration
	verify       bool
	jsonOut      bool
	serve        string

	slo    load.SLO
	hasSLO bool
}

// parseOptions parses and validates args. It returns flag.ErrHelp for
// -h/-help; any other error is a usage error.
func parseOptions(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("vsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.url, "url", "", "base URL of a running vserved (mutually exclusive with -spawn)")
	fs.StringVar(&o.spawn, "spawn", "", "command line of a vserved to spawn and manage (required for -chaos)")
	fs.StringVar(&o.dist, "dist", "hotkey", "submission distribution: hotkey (dedup-heavy) or uniform (all unique)")
	fs.Float64Var(&o.rate, "rate", 500, "target submissions/sec across all submitters (0 = unpaced)")
	fs.IntVar(&o.conc, "conc", 8, "concurrent submitter goroutines")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "length of the submission phase")
	fs.IntVar(&o.count, "count", 0, "submit exactly this many requests instead of running for -duration")
	fs.IntVar(&o.hotkeys, "hotkeys", 8, "distinct specs in the hotkey pool")
	fs.StringVar(&o.workload, "workload", "compress", "workload of the synthetic specs")
	fs.IntVar(&o.scale, "scale", 1, "scale of the synthetic specs (keep tiny: jobs/sec is the point)")
	fs.StringVar(&o.sloPath, "slo", "", "SLO spec file; violations make vsload exit nonzero")
	fs.StringVar(&o.reportPath, "report", "", "write the full report as JSON to this file")
	fs.StringVar(&o.manifestPath, "manifest", "", "write the submission manifest to this file (input of -reconcile)")
	fs.BoolVar(&o.reconcile, "reconcile", false, "skip the soak: reconcile the -manifest against the daemon and verify exactly-once termination")
	fs.BoolVar(&o.chaos, "chaos", false, "SIGKILL and restart the spawned daemon — or, with -fleet-workers, one fleet worker — mid-soak")
	fs.Float64Var(&o.chaosAt, "chaos-at", 0.5, "fraction of the soak at which the chaos kill fires")
	fs.IntVar(&o.fleetWorkers, "fleet-workers", 0, "spawn this many stateless fleet workers against the daemon; -chaos then SIGKILLs a worker instead of the daemon")
	fs.StringVar(&o.workerCmd, "worker-cmd", "", "fleet worker command line without -coordinator, e.g. \"vserved -worker -capacity 2\" (required with -fleet-workers)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 120*time.Second, "deadline for every acknowledged job to reach a terminal state")
	fs.DurationVar(&o.sample, "sample", 250*time.Millisecond, "queue-depth sampling interval (negative disables)")
	fs.BoolVar(&o.verify, "verify-results", true, "re-fetch one stored result per unique content hash and check it")
	fs.BoolVar(&o.jsonOut, "json", false, "print the report as JSON instead of text")
	fs.StringVar(&o.serve, "serve", "", "serve the soak's live load.* metrics over HTTP at this address (/metrics, /series, /dash); port 0 picks a free one")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("vsload: unexpected arguments %q", fs.Args())
	}

	if o.reconcile {
		if o.manifestPath == "" {
			return nil, errors.New("vsload: -reconcile requires -manifest")
		}
		if o.url == "" {
			return nil, errors.New("vsload: -reconcile requires -url")
		}
		if o.chaos || o.spawn != "" {
			return nil, errors.New("vsload: -reconcile cannot be combined with -spawn or -chaos")
		}
		return o, nil
	}

	switch o.dist {
	case "hotkey", "uniform":
	default:
		return nil, fmt.Errorf("vsload: unknown -dist %q, want hotkey or uniform", o.dist)
	}
	if (o.url == "") == (o.spawn == "") {
		return nil, errors.New("vsload: exactly one of -url or -spawn is required")
	}
	if o.fleetWorkers < 0 {
		return nil, fmt.Errorf("vsload: negative -fleet-workers %d", o.fleetWorkers)
	}
	if (o.fleetWorkers > 0) != (o.workerCmd != "") {
		return nil, errors.New("vsload: -fleet-workers and -worker-cmd go together")
	}
	if o.chaos && o.spawn == "" && o.fleetWorkers == 0 {
		return nil, errors.New("vsload: -chaos requires -spawn or -fleet-workers (the harness must own the process it kills)")
	}
	if o.chaos && o.count > 0 {
		return nil, errors.New("vsload: -chaos needs a -duration soak, not -count")
	}
	if o.rate < 0 {
		return nil, fmt.Errorf("vsload: negative -rate %g", o.rate)
	}
	if o.count < 0 {
		return nil, fmt.Errorf("vsload: negative -count %d", o.count)
	}
	if o.count == 0 && o.duration <= 0 {
		return nil, errors.New("vsload: -duration must be positive (or use -count)")
	}
	if o.hotkeys < 1 {
		return nil, fmt.Errorf("vsload: -hotkeys must be at least 1, got %d", o.hotkeys)
	}
	if o.scale < 1 {
		return nil, fmt.Errorf("vsload: -scale must be at least 1, got %d", o.scale)
	}
	if o.chaosAt <= 0 || o.chaosAt >= 1 {
		return nil, fmt.Errorf("vsload: -chaos-at must be in (0,1), got %g", o.chaosAt)
	}
	if _, err := bench.ByName(o.workload); err != nil {
		return nil, fmt.Errorf("vsload: %w", err)
	}
	if o.sloPath != "" {
		slo, err := load.LoadSLO(o.sloPath)
		if err != nil {
			return nil, err
		}
		// Resolve per-distribution overrides now: -dist is already
		// validated, and everything downstream (Evaluate, Describe) should
		// see exactly the thresholds this soak is gated on.
		o.slo, o.hasSLO = slo.ForDistribution(o.dist), true
	}
	return o, nil
}

// run is main minus the process exit: 0 clean, 1 for violations and runtime
// failures, 2 for usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 2
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "vsload: "+format+"\n", a...)
	}

	if o.reconcile {
		return runReconcile(o, stdout, stderr, logf)
	}

	client := load.NewClient(o.url)
	var daemon *load.Proc
	if o.spawn != "" {
		logPath := "vsload-daemon.log"
		d, err := load.StartProc(strings.Fields(o.spawn), logPath, servingLine, 30*time.Second)
		if err != nil {
			fmt.Fprintln(stderr, "vsload:", err)
			return 1
		}
		daemon = d
		defer daemon.Kill()
		client.SetBase(daemon.Ready())
		logf("spawned daemon at %s (log: %s)", daemon.Ready(), logPath)
	}
	var fleetWorkers []*load.Proc
	for i := 0; i < o.fleetWorkers; i++ {
		logPath := fmt.Sprintf("vsload-worker-%d.log", i+1)
		args := append(strings.Fields(o.workerCmd), "-coordinator", client.Base())
		w, err := load.StartProc(args, logPath, workerLine, 30*time.Second)
		if err != nil {
			fmt.Fprintln(stderr, "vsload:", err)
			return 1
		}
		fleetWorkers = append(fleetWorkers, w)
		defer w.Kill()
		logf("spawned fleet worker %s (log: %s)", w.Ready(), logPath)
	}

	var source load.SpecSource
	if o.dist == "hotkey" {
		source = load.Hotkey(o.workload, o.scale, o.hotkeys)
	} else {
		source = load.Uniform(o.workload, o.scale)
	}
	cfg := load.Config{
		Client:         client,
		Source:         source,
		Rate:           o.rate,
		Concurrency:    o.conc,
		Duration:       o.duration,
		Count:          o.count,
		SampleInterval: o.sample,
		DrainTimeout:   o.drainTimeout,
		VerifyResults:  o.verify,
		Logf:           logf,
	}
	if o.chaos {
		if len(fleetWorkers) > 0 {
			// Fleet chaos: SIGKILL one worker mid-soak. The coordinator stays
			// up, so submitters never even notice; its lease-expiry scan
			// requeues whatever the dead worker held, and reconciliation
			// proves nothing was lost or double-counted.
			victim := fleetWorkers[0]
			cfg.Chaos = &load.Chaos{At: o.chaosAt, Restart: func() (string, error) {
				id, err := victim.Restart()
				if err != nil {
					return "", err
				}
				logf("chaos: fleet worker reborn as %s (coordinator untouched)", id)
				return client.Base(), nil
			}}
		} else {
			cfg.Chaos = &load.Chaos{At: o.chaosAt, Restart: daemon.Restart}
		}
	}
	if o.serve != "" {
		reg := obs.NewSharedRegistry()
		cfg.Metrics = reg
		web := obsweb.New(obsweb.Config{Metrics: reg})
		if err := web.Start(context.Background(), o.serve); err != nil {
			fmt.Fprintln(stderr, "vsload:", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = web.Shutdown(ctx)
		}()
		logf("serving live metrics at http://%s (dashboard: http://%s/dash)", web.Addr(), web.Addr())
	}
	runner, err := load.NewRunner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "vsload:", err)
		return 2
	}
	rep, err := runner.Run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "vsload:", err)
		return 1
	}
	if o.hasSLO {
		rep.SLOViolations = o.slo.Evaluate(rep)
		logf("SLO %s [%s]: %s", o.sloPath, o.dist, o.slo.Describe())
	}
	if o.manifestPath != "" {
		m := load.Manifest{Base: client.Base(), Entries: runner.Entries()}
		if err := load.WriteManifest(o.manifestPath, m); err != nil {
			fmt.Fprintln(stderr, "vsload:", err)
			return 1
		}
	}
	return emit(o, rep, stdout, stderr)
}

// runReconcile is the -reconcile mode: drain and verify a prior soak's
// manifest against the daemon's durable listing.
func runReconcile(o *options, stdout, stderr io.Writer, logf func(string, ...any)) int {
	m, err := load.ReadManifest(o.manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "vsload:", err)
		return 1
	}
	client := load.NewClient(o.url)
	if err := client.Healthy(); err != nil {
		fmt.Fprintln(stderr, "vsload:", err)
		return 1
	}
	out, err := load.Reconcile(context.Background(), client, m, o.drainTimeout, o.verify, logf)
	if err != nil {
		fmt.Fprintln(stderr, "vsload:", err)
		return 1
	}
	rep := &load.Report{Dist: "reconcile", Acked: len(m.Entries), Outcome: *out}
	return emit(o, rep, stdout, stderr)
}

// emit prints the report (text or JSON), writes the -report file, and maps
// the verdict to the exit code.
func emit(o *options, rep *load.Report, stdout, stderr io.Writer) int {
	if o.reportPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(o.reportPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "vsload: writing report:", err)
			return 1
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		enc.Encode(rep)
	} else {
		rep.Format(stdout)
	}
	if !rep.Clean() {
		return 1
	}
	return 0
}
