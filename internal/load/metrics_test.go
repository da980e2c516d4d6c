package load

import (
	"context"
	"testing"
	"time"

	"valuespec/internal/obs"
)

// TestRunnerLiveMetrics runs a small soak with a metrics registry attached
// and checks the live load.* series: the submit histogram holds exactly the
// recorded samples, one per acknowledged submission with the same sum, and
// the counters match the report.
func TestRunnerLiveMetrics(t *testing.T) {
	n := testCount(200, 40)
	d := startFakeDaemon(t, t.TempDir(), 4, instantSim)
	reg := obs.NewSharedRegistry()
	r, err := NewRunner(Config{
		Client:         NewClient(d.URL()),
		Source:         Uniform("compress", 1),
		Concurrency:    4,
		Count:          n,
		SampleInterval: 5 * time.Millisecond,
		DrainTimeout:   30 * time.Second,
		PollInterval:   10 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Registered up front: a scrape before the first submission already
	// carries the whole load.* set.
	snap := reg.Snapshot()
	for _, name := range []string{MetricAcked, MetricRejected} {
		if snap.Counter(name).Value() != 0 {
			t.Errorf("%s nonzero before the soak", name)
		}
	}
	if snap.Histogram(MetricSubmitUS).Count() != 0 {
		t.Errorf("%s nonempty before the soak", MetricSubmitUS)
	}

	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != n {
		t.Fatalf("acked = %d, want %d", rep.Acked, n)
	}

	snap = reg.Snapshot()
	if got := snap.Counter(MetricAcked).Value(); got != int64(n) {
		t.Errorf("%s = %d, want %d", MetricAcked, got, n)
	}
	if got := snap.Counter(MetricRejected).Value(); got != int64(rep.Rejected) {
		t.Errorf("%s = %d, want %d", MetricRejected, got, rep.Rejected)
	}
	h := snap.Histogram(MetricSubmitUS)
	if got := h.Count(); got != uint64(rep.Acked) {
		t.Errorf("%s count = %d, want one per ack (%d)", MetricSubmitUS, got, rep.Acked)
	}
	var sum int64
	for _, us := range r.submitUS {
		sum += us
	}
	if got := h.Sum(); got != sum {
		t.Errorf("%s sum = %dµs, want the recorded samples' %dµs", MetricSubmitUS, got, sum)
	}
}
