package obsweb

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"valuespec/internal/obs"
)

// TestSeriesEndpoint checks that the stream loop samples the registry into
// /series: after a few ticks the JSON body carries the counter as a series
// whose per-tick deltas sum back to the counter's value.
func TestSeriesEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body, hdr := get(t, ts.URL+"/series")
		if code != 200 {
			t.Fatalf("/series = %d, want 200", code)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var snap SeriesSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
		pts := snap.Series["retired"]
		if len(pts) >= 3 {
			if snap.Type != "backfill" {
				t.Errorf("snapshot type %q, want backfill", snap.Type)
			}
			// Counters sample as deltas: the first tick carries the whole 42,
			// later ticks are zero, so the sum reconciles with the counter.
			var sum float64
			for i, p := range pts {
				sum += p.Y
				if i > 0 && p.X <= pts[i-1].X {
					t.Errorf("series X not ascending: %v", pts)
				}
			}
			if sum != 42 {
				t.Errorf("retired deltas sum to %v, want 42", sum)
			}
			// Histograms flatten to summary columns.
			if len(snap.Series["sweep.spec_cycles.count"]) == 0 {
				t.Error("histogram count column missing from /series")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("series never accumulated 3 points: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSeriesCounterSums samples the tracker for 2,000 ticks, far past its
// capacity, so the history decimates: every counter's /series points must
// still sum to the counter, a counter that joins mid-run included, while
// each SSE tick carries that tick's own delta and a gauge stays raw.
func TestSeriesCounterSums(t *testing.T) {
	reg := obs.NewSharedRegistry()
	tr := newSeriesTracker(reg)
	const ticks, join = 2000, 700
	for i := 1; i <= ticks; i++ {
		reg.Add("retired", 1)
		reg.SetGauge("depth", float64(i%7))
		if i > join {
			reg.Add("late", 3)
		}
		_, tick := tr.sample()
		if tick["retired"] != 1 || (i > join && tick["late"] != 3) {
			t.Fatalf("tick %d: live deltas %v, want retired 1 and late 3 once joined", i, tick)
		}
	}
	snap := tr.snapshot(0)
	for name, want := range map[string]float64{"retired": ticks, "late": 3 * (ticks - join)} {
		pts := snap.Series[name]
		var sum float64
		for _, p := range pts {
			sum += p.Y
		}
		if sum != want {
			t.Errorf("%s: %d points sum to %v, want the counter's %v", name, len(pts), sum, want)
		}
		if len(pts) > seriesCap || len(pts) == 0 {
			t.Errorf("%s: %d points, want 1..%d", name, len(pts), seriesCap)
		}
	}
	if pts := snap.Series["retired"]; len(pts) == ticks {
		t.Errorf("retired kept all %d ticks: the history never decimated", ticks)
	}
	depth := snap.Series["depth"]
	if last := depth[len(depth)-1]; last.Y != ticks%7 {
		t.Errorf("gauge's last point %v, want its value %d", last, ticks%7)
	}
}

// TestSeriesStream reads the SSE feed: a backfill frame first, then delta
// ticks with ascending X carrying every column.
func TestSeriesStream(t *testing.T) {
	_, ts, _ := newTestServer(t, 5*time.Millisecond)
	resp, err := http.Get(ts.URL + "/series/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	type frame struct {
		Type   string             `json:"type"`
		X      int64              `json:"x"`
		Values map[string]float64 `json:"values"`
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(frames) < 3 {
		body, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var f frame
		if err := json.Unmarshal([]byte(body), &f); err != nil {
			t.Fatalf("decoding frame %q: %v", body, err)
		}
		frames = append(frames, f)
	}
	if len(frames) != 3 {
		t.Fatalf("read %d frames, want 3 (scan err %v)", len(frames), sc.Err())
	}
	if frames[0].Type != "backfill" {
		t.Errorf("first frame type %q, want backfill", frames[0].Type)
	}
	for i, f := range frames[1:] {
		if f.Type != "tick" {
			t.Errorf("frame %d type %q, want tick", i+1, f.Type)
		}
		if _, ok := f.Values["retired"]; !ok {
			t.Errorf("tick frame missing the retired column: %v", f.Values)
		}
	}
	if frames[2].X <= frames[1].X {
		t.Errorf("tick X not ascending: %d then %d", frames[1].X, frames[2].X)
	}
}

// TestDashPage checks the dashboard ships as one self-contained HTML page
// wired to the series stream.
func TestDashPage(t *testing.T) {
	_, ts, _ := newTestServer(t, time.Hour)
	code, body, hdr := get(t, ts.URL+"/dash")
	if code != 200 {
		t.Fatalf("/dash = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q, want text/html", ct)
	}
	for _, want := range []string{"<!DOCTYPE html>", "series/stream", "EventSource", "<script>"} {
		if !strings.Contains(body, want) {
			t.Errorf("/dash missing %q", want)
		}
	}
	if strings.Contains(body, "src=\"http") || strings.Contains(body, "href=\"http") {
		t.Error("/dash references external assets")
	}
}

// TestSSEHeartbeats pins the keepalive contract: with data frames parked
// (an hour-long stream interval) both streams still emit ": hb" comment
// frames every heartbeat interval.
func TestSSEHeartbeats(t *testing.T) {
	shared := newTestServerRegistry()
	var n atomic.Int64
	s := New(Config{
		Metrics:           shared,
		Progress:          func() any { return testProgress{Completed: n.Add(1)} },
		StreamInterval:    time.Hour,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	for _, path := range []string{"/progress/stream", "/series/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		beats := 0
		sc := bufio.NewScanner(resp.Body)
		deadline := time.Now().Add(5 * time.Second)
		for sc.Scan() && beats < 2 && time.Now().Before(deadline) {
			if strings.HasPrefix(sc.Text(), ": hb") {
				beats++
			}
		}
		resp.Body.Close()
		if beats < 2 {
			t.Errorf("%s produced %d heartbeats, want >= 2 (scan err %v)", path, beats, sc.Err())
		}
	}
}
