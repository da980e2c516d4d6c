// Package obsweb serves the simulator's observability live over HTTP: the
// shared metrics registry as Prometheus text exposition, the sweep progress
// tracker as JSON and as a Server-Sent-Events stream, health/readiness
// probes, and the runtime's pprof endpoints. It is the first network-facing
// subsystem of the codebase and is stdlib-only, like everything else.
//
// The server reads exclusively through obs.SharedRegistry.Snapshot and a
// caller-supplied progress-snapshot closure, so scrapes never contend with
// the single-goroutine hot path of a running pipeline — the worker pool
// publishes into the shared registry, the server copies out of it.
//
// Endpoints:
//
//	GET /metrics          Prometheus text format 0.0.4
//	GET /healthz          liveness: 200 "ok" while the process runs
//	GET /readyz           readiness: 200 once serving, 503 before/during shutdown
//	GET /progress         one progress snapshot as JSON
//	GET /progress/stream  SSE: one "data:" frame per interval; slow clients
//	                      skip to the newest frame instead of blocking anyone
//	GET /series           every registry column as a time series (JSON):
//	                      counters sampled as per-tick deltas, gauges raw
//	GET /series/stream    SSE: a backfill frame, then one delta frame per tick
//	GET /dash             self-contained live dashboard (SVG sparklines over
//	                      /series/stream)
//	GET /trace            every buffered span as Chrome trace JSON
//	GET /buildz           build/VCS identity of the running binary
//	GET /debug/pprof/*    net/http/pprof (profile, heap, trace, ...)
//
// Both SSE streams write a ": hb" comment every Config.HeartbeatInterval so
// idle connections keep flowing through buffering proxies.
//
// Every route passes through lightweight middleware that feeds the
// service-level http.* metrics (per-route latency histograms, status-class
// counters, an in-flight gauge) back into the same exposition the server
// scrapes from.
package obsweb

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"valuespec/internal/obs"
)

// MetricSSEDropped counts SSE frames skipped because a client's buffer was
// still full at publish time; published into the shared registry, so the
// exposition itself reports streaming health.
const MetricSSEDropped = "obsweb.sse_dropped_frames"

// DefaultStreamInterval is the SSE push period when Config leaves it zero.
const DefaultStreamInterval = 500 * time.Millisecond

// DefaultHeartbeatInterval is the SSE keepalive-comment period when Config
// leaves it zero.
const DefaultHeartbeatInterval = 15 * time.Second

// Config wires a Server to its data sources. The zero value of optional
// fields disables the corresponding endpoints.
type Config struct {
	// Metrics backs GET /metrics; nil serves an empty exposition.
	Metrics *obs.SharedRegistry
	// Namespace prefixes every exposed metric name; empty means "valuespec".
	Namespace string
	// Progress returns the JSON-marshalable snapshot served by /progress
	// and streamed by /progress/stream; nil disables both endpoints. It is
	// called from server goroutines and must be goroutine-safe.
	Progress func() any
	// StreamInterval is the SSE push period; <= 0 means
	// DefaultStreamInterval. With Metrics configured it is also the /series
	// sampling interval.
	StreamInterval time.Duration
	// HeartbeatInterval is the SSE keepalive-comment period of both streams;
	// <= 0 means DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// Jobs, when non-nil, is mounted at /jobs — the simulation job API of
	// internal/jobs (cmd/vserved wires it up).
	Jobs http.Handler
	// Fleet, when non-nil, is mounted at the fleet lease-protocol routes —
	// POST /lease, /heartbeat, /complete, /fail and GET /fleet — the
	// coordinator handler of internal/fleet.
	Fleet http.Handler
	// Tracer, when non-nil, backs GET /trace: the whole buffered span window
	// exported as Chrome trace JSON.
	Tracer *obs.Tracer
	// Logger receives the middleware's debug-level access log; nil discards
	// it.
	Logger *slog.Logger
}

// Server is the live observability HTTP server. Create with New, expose
// with Start (or mount Handler in a server of your own), stop with Shutdown
// — or let the context passed to Start do it.
type Server struct {
	cfg Config
	mux *http.ServeMux

	srv   *http.Server
	ln    net.Listener
	ready atomic.Bool

	inflight atomic.Int64 // live requests, behind the http.inflight gauge

	bc       *broadcaster   // /progress/stream fan-out (nil without Progress)
	series   *seriesTracker // /series sampler (nil without Metrics)
	seriesBC *broadcaster   // /series/stream fan-out (nil without Metrics)
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a server over cfg and starts its SSE broadcast loop (a no-op
// until a client subscribes). Callers must eventually Shutdown even if they
// never Start, to stop that loop.
func New(cfg Config) *Server {
	if cfg.Namespace == "" {
		cfg.Namespace = "valuespec"
	}
	if cfg.StreamInterval <= 0 {
		cfg.StreamInterval = DefaultStreamInterval
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		stop: make(chan struct{}),
	}
	if cfg.Metrics != nil {
		s.preregisterHTTPMetrics()
	}
	// Go 1.22 muxes don't expose the matched pattern to handlers, so each
	// route is wrapped with its instrumentation name here.
	s.mux.HandleFunc("/", s.instrument("index", s.handleIndex))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("/buildz", s.instrument("buildz", s.handleBuildz))
	if cfg.Progress != nil {
		s.mux.HandleFunc("/progress", s.instrument("progress", s.handleProgress))
		s.mux.HandleFunc("/progress/stream", s.instrument("progress_stream", s.handleStream))
	}
	if cfg.Metrics != nil {
		s.mux.HandleFunc("/series", s.instrument("series", s.handleSeries))
		s.mux.HandleFunc("/series/stream", s.instrument("series_stream", s.handleSeriesStream))
		s.mux.HandleFunc("/dash", s.instrument("dash", s.handleDash))
	}
	if cfg.Tracer != nil {
		s.mux.HandleFunc("/trace", s.instrument("trace", s.handleTrace))
	}
	if cfg.Jobs != nil {
		// The jobs handler's own patterns are rooted at /jobs, so it mounts
		// without a prefix strip.
		jobs := s.instrument("jobs", cfg.Jobs.ServeHTTP)
		s.mux.Handle("/jobs", jobs)
		s.mux.Handle("/jobs/", jobs)
	}
	if cfg.Fleet != nil {
		// The coordinator's own mux routes by method and path; one
		// instrumentation name covers the whole protocol.
		fleet := s.instrument("fleet", cfg.Fleet.ServeHTTP)
		for _, p := range []string{"/lease", "/heartbeat", "/complete", "/fail", "/fleet"} {
			s.mux.Handle(p, fleet)
		}
	}
	s.mux.HandleFunc("/debug/pprof/", s.instrument("pprof", pprof.Index))
	s.mux.HandleFunc("/debug/pprof/cmdline", s.instrument("pprof", pprof.Cmdline))
	s.mux.HandleFunc("/debug/pprof/profile", s.instrument("pprof", pprof.Profile))
	s.mux.HandleFunc("/debug/pprof/symbol", s.instrument("pprof", pprof.Symbol))
	s.mux.HandleFunc("/debug/pprof/trace", s.instrument("pprof", pprof.Trace))
	if cfg.Progress != nil {
		s.bc = newBroadcaster(s.onDroppedFrame)
	}
	if cfg.Metrics != nil {
		s.series = newSeriesTracker(cfg.Metrics)
		s.seriesBC = newBroadcaster(s.onDroppedFrame)
	}
	if s.bc != nil || s.series != nil {
		s.wg.Add(1)
		go s.streamLoop()
	}
	return s
}

// Handler returns the server's route table, for mounting under an external
// http.Server (tests use net/http/httptest around it).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (e.g. "127.0.0.1:9090"; port 0 picks a free one — read
// the result from Addr) and serves in the background until Shutdown. When
// ctx is cancelled the server shuts itself down gracefully, bounded by
// shutdownGrace.
func (s *Server) Start(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ErrServerClosed is the normal Shutdown result; real accept errors
		// surface to clients as connection failures, which the probes catch.
		_ = s.srv.Serve(ln)
	}()
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
				defer cancel()
				_ = s.Shutdown(sctx)
			case <-s.stop:
			}
		}()
	}
	s.ready.Store(true)
	return nil
}

// shutdownGrace bounds the context-cancel shutdown path.
const shutdownGrace = 5 * time.Second

// Addr returns the bound listen address ("host:port"), or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// SetReady flips the /readyz answer; Start sets it, Shutdown clears it.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Shutdown stops the SSE loop, closes every stream, and gracefully shuts
// the HTTP server down within ctx. Safe to call multiple times and without
// a prior Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.stopOnce.Do(func() { close(s.stop) })
	var err error
	if s.srv != nil {
		err = s.srv.Shutdown(ctx)
	}
	s.wg.Wait()
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "valuespec live observability\n\n"+
		"  /metrics          Prometheus text exposition\n"+
		"  /healthz          liveness probe\n"+
		"  /readyz           readiness probe\n"+
		"  /buildz           build and VCS identity (JSON)\n"+
		"  /progress         sweep progress snapshot (JSON)\n"+
		"  /progress/stream  sweep progress stream (SSE)\n"+
		"  /debug/pprof/     runtime profiles\n")
	if s.cfg.Metrics != nil {
		fmt.Fprintf(w, "  /series           per-metric time series (JSON)\n"+
			"  /series/stream    per-metric time series stream (SSE)\n"+
			"  /dash             live dashboard (HTML, SVG sparklines)\n")
	}
	if s.cfg.Tracer != nil {
		fmt.Fprintf(w, "  /trace            buffered spans as Chrome trace JSON\n")
	}
	if s.cfg.Jobs != nil {
		fmt.Fprintf(w, "  /jobs             simulation job API "+
			"(POST submit, GET list; /jobs/{id}, /jobs/{id}/result, "+
			"/jobs/{id}/trace, DELETE cancel)\n")
	}
	if s.cfg.Fleet != nil {
		fmt.Fprintf(w, "  /fleet            fleet snapshot (JSON); worker protocol: "+
			"POST /lease, /heartbeat, /complete, /fail\n")
	}
}

// BuildInfo is the /buildz body: enough identity to tell which binary a
// fleet member is running without shelling into its host.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Path        string `json:"path"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// handleBuildz reports the running binary's build identity from the info
// the Go linker already stamped into it.
func (s *Server) handleBuildz(w http.ResponseWriter, _ *http.Request) {
	info := BuildInfo{GoVersion: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.GoVersion = bi.GoVersion
		info.Path = bi.Path
		info.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.VCSRevision = kv.Value
			case "vcs.time":
				info.VCSTime = kv.Value
			case "vcs.modified":
				info.VCSModified = kv.Value == "true"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(info)
}

// handleTrace exports every buffered span as Chrome trace JSON, optionally
// restricted to one track (?track=j000001). Load the result in Perfetto or
// chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.cfg.Tracer.Spans(r.URL.Query().Get("track"))
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, spans)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := obs.NewRegistry()
	if s.cfg.Metrics != nil {
		snap = s.cfg.Metrics.Snapshot()
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	// Snapshot-then-write means a slow scraper holds no lock anywhere.
	_ = obs.WritePrometheus(w, snap, s.cfg.Namespace)
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.cfg.Progress())
}

// handleStream serves the progress feed: the current snapshot at once, so
// clients see state without waiting an interval, then one frame per
// broadcast tick.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.serveSSE(w, r, s.cfg.Progress(), s.bc)
}

// serveSSE serves one subscriber of an SSE feed: first as an immediate
// frame, then each frame bc broadcasts, with heartbeat comments keeping
// idle proxies from reaping the connection, until the client leaves or the
// server stops. The subscriber's buffer holds a single frame — when the
// client reads slower than the tick, the broadcaster replaces the stale
// frame with the newest and counts the drop, so no client ever applies
// backpressure to the broadcast loop or to other clients.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, first any, bc *broadcaster) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	frame, err := sseFrame(first)
	if err != nil {
		return
	}
	if _, err := w.Write(frame); err != nil {
		return
	}
	fl.Flush()

	hb := time.NewTicker(s.cfg.HeartbeatInterval)
	defer hb.Stop()
	ch := bc.subscribe()
	defer bc.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-hb.C:
			if _, err := w.Write(heartbeatFrame); err != nil {
				return
			}
			fl.Flush()
		case frame := <-ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// sseFrame wraps a JSON-marshalable body into one SSE data frame.
func sseFrame(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 0, len(body)+8)
	frame = append(frame, "data: "...)
	frame = append(frame, body...)
	frame = append(frame, '\n', '\n')
	return frame, nil
}

// heartbeatFrame is the SSE comment written on heartbeat ticks; clients
// ignore comment lines, proxies see traffic.
var heartbeatFrame = []byte(": hb\n\n")

// streamLoop drives both SSE feeds on one ticker: it samples the metric
// registry into the series tracker every interval (so /series carries
// history whether or not anyone watches), and marshals/fans out each feed's
// frame only while that feed has subscribers.
func (s *Server) streamLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.StreamInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.series != nil {
				x, vals := s.series.sample()
				if !s.seriesBC.empty() {
					if frame, err := sseFrame(seriesTick{Type: "tick", X: x, Values: vals}); err == nil {
						s.seriesBC.publish(frame)
					}
				}
			}
			if s.bc == nil || s.bc.empty() {
				continue
			}
			if frame, err := sseFrame(s.cfg.Progress()); err == nil {
				s.bc.publish(frame)
			}
		}
	}
}

// onDroppedFrame publishes the drop count so streaming health shows up in
// the exposition alongside everything else. Both broadcasters share the one
// counter, so the published value is their sum, not the caller's total.
func (s *Server) onDroppedFrame(int64) {
	if s.cfg.Metrics == nil {
		return
	}
	var total int64
	if s.bc != nil {
		total += s.bc.droppedTotal()
	}
	if s.seriesBC != nil {
		total += s.seriesBC.droppedTotal()
	}
	s.cfg.Metrics.SetCounter(MetricSSEDropped, total)
}
