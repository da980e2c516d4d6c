package load

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// nearestRank is the reference percentile: the sample at rank floor(q*n)
// of the sorted samples, clamped to n-1, in milliseconds.
func nearestRank(us []int64, q float64) float64 {
	s := slices.Clone(us)
	slices.Sort(s)
	return float64(s[min(int(q*float64(len(s))), len(s)-1)]) / 1000
}

// checkExact fails unless st reports the nearest-rank percentiles, the max
// and the count of the samples us.
func checkExact(t *testing.T, what string, st LatencyStats, us []int64) {
	t.Helper()
	if st.Count != uint64(len(us)) {
		t.Fatalf("%s: count %d, want %d samples", what, st.Count, len(us))
	}
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{{"p50", st.P50MS, 0.50}, {"p95", st.P95MS, 0.95}, {"p99", st.P99MS, 0.99}, {"max", st.MaxMS, 1}} {
		if want := nearestRank(us, c.q); c.got != want {
			t.Errorf("%s %s = %gms, want the recorded sample %gms", what, c.name, c.got, want)
		}
	}
}

// TestLatencyStatsNearestRank checks each percentile against a known sample
// set: 1..100000 µs in shuffled order.
func TestLatencyStatsNearestRank(t *testing.T) {
	us := make([]int64, 100000)
	for i := range us {
		us[i] = int64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
	st := latencyStats(us)
	want := LatencyStats{Count: 100000, P50MS: 50.001, P95MS: 95.001, P99MS: 99.001, MaxMS: 100, MeanMS: 50.001}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st := latencyStats(nil); st != (LatencyStats{}) {
		t.Fatalf("no samples: %+v, want zero stats", st)
	}
}

func TestLatencyStatsNegativeClampsToZero(t *testing.T) {
	st := latencyStats([]int64{-5})
	if st != (LatencyStats{Count: 1}) {
		t.Fatalf("negative sample not clamped: %+v", st)
	}
}

func TestLatencyStatsMillisecondConversion(t *testing.T) {
	st := latencyStats([]int64{2000}) // 2ms in µs
	if st.Count != 1 || st.MaxMS != 2 || st.MeanMS != 2 {
		t.Fatalf("stats = %+v, want 2ms max/mean of 1 sample", st)
	}
}

// TestRunnerRecordConcurrent records from 8 goroutines, as the submitters
// do. Run under -race (the Makefile race step includes this package), it
// proves the recording path safe, and the totals prove no sample is lost,
// neither in the runner nor in the live histogram.
func TestRunnerRecordConcurrent(t *testing.T) {
	const goroutines, perG = 8, 1000
	reg := obs.NewSharedRegistry()
	r, err := NewRunner(Config{Client: NewClient("http://127.0.0.1:1"), Source: Uniform("compress", 1), Count: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var wantSum int64
	for g := range goroutines {
		for i := range perG {
			wantSum += int64(g*1000 + i%100)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				r.record(Entry{ID: fmt.Sprintf("j%d", g*perG+i)}, int64(g*1000+i%100))
			}
		}()
	}
	wg.Wait()
	if len(r.Entries()) != goroutines*perG || len(r.submitUS) != goroutines*perG {
		t.Fatalf("%d entries, %d samples, want %d each", len(r.Entries()), len(r.submitUS), goroutines*perG)
	}
	var sum int64
	for _, us := range r.submitUS {
		sum += us
	}
	if sum != wantSum {
		t.Fatalf("sum = %d, want %d", sum, wantSum)
	}
	if st := latencyStats(slices.Clone(r.submitUS)); st.MaxMS != 7.099 {
		t.Fatalf("max = %gms, want 7.099", st.MaxMS)
	}
	snap := reg.Snapshot()
	h := snap.Histogram(MetricSubmitUS)
	if h.Count() != goroutines*perG || h.Sum() != wantSum || h.Min() != 0 || h.Max() != 7099 {
		t.Fatalf("%s count/sum/min/max = %d/%d/%d/%d, want %d/%d/0/7099",
			MetricSubmitUS, h.Count(), h.Sum(), h.Min(), h.Max(), goroutines*perG, wantSum)
	}
	if got := snap.Counter(MetricAcked).Value(); got != goroutines*perG {
		t.Fatalf("%s = %d, want %d", MetricAcked, got, goroutines*perG)
	}
}

// TestReportLatenciesExact soaks the in-process daemon and requires the
// report's percentiles to be recorded samples: Submit's are the nearest-rank
// samples of the runner's submit latencies, and E2E's those of the executed
// jobs' durable submit-to-done times in the daemon's listing.
func TestReportLatenciesExact(t *testing.T) {
	n := testCount(200, 60)
	d := startFakeDaemon(t, t.TempDir(), 4, instantSim)
	client := NewClient(d.URL())
	r, err := NewRunner(Config{
		Client:         client,
		Source:         Hotkey("compress", 1, 8),
		Concurrency:    4,
		Count:          n,
		SampleInterval: -1,
		DrainTimeout:   30 * time.Second,
		PollInterval:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "submit", rep.Submit, r.submitUS)

	sums, err := client.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	var e2e []int64
	for _, s := range sums {
		if s.State == jobs.StateDone && !s.Deduped {
			e2e = append(e2e, s.FinishedAt.Sub(s.SubmittedAt).Microseconds())
		}
	}
	if len(e2e) == 0 || len(e2e) == n {
		t.Fatalf("%d of %d jobs executed, want some executed and some deduped", len(e2e), n)
	}
	checkExact(t, "e2e", rep.E2E, e2e)
}
