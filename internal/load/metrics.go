package load

import "valuespec/internal/obs"

// Live Prometheus series the runner publishes into Config.Metrics while a
// soak runs, so an obsweb /metrics (and /dash) on the same registry shows
// the client-side view mid-soak instead of only the final report. Each
// acknowledged submission's latency is observed into the histogram as it
// lands, so its count and sum equal the report's exactly.
const (
	MetricSubmitUS   = "load.submit_us"   // histogram: accepted-submission latency, µs
	MetricAcked      = "load.acked"       // counter: submissions acknowledged
	MetricRejected   = "load.rejected"    // counter: submissions rejected or failed
	MetricQueueDepth = "load.queue_depth" // gauge: daemon queue depth at last sample
	MetricInflight   = "load.inflight"    // gauge: daemon in-flight jobs at last sample
)

// registerMetrics pre-creates the load.* series so the exposition carries
// the full set (at zero) from the first scrape of a soak.
func (r *Runner) registerMetrics() {
	if r.cfg.Metrics == nil {
		return
	}
	r.cfg.Metrics.Do(func(reg *obs.Registry) {
		reg.Histogram(MetricSubmitUS)
		reg.Counter(MetricAcked)
		reg.Counter(MetricRejected)
		reg.Gauge(MetricQueueDepth)
		reg.Gauge(MetricInflight)
	})
}

// publishDepth sets the queue gauges from one depth sample.
func (r *Runner) publishDepth(depth, inflight int) {
	if r.cfg.Metrics == nil {
		return
	}
	r.cfg.Metrics.Do(func(reg *obs.Registry) {
		reg.Gauge(MetricQueueDepth).Set(float64(depth))
		reg.Gauge(MetricInflight).Set(float64(inflight))
	})
}
