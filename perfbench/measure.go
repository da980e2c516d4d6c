package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"valuespec/internal/obs"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 200 samples rests on two values and says
// nothing about the tail.
const minTail = 10

// pct is one percentile of a sample, with the counts that support it.
type pct struct {
	P      float64 // the requested percentile, in [0, 1)
	Value  float64
	N      int // samples in the distribution
	Beyond int // samples strictly above the percentile's rank
	OK     bool
}

// percentile returns the nearest-rank p-percentile of vals (p in [0, 1)).
// It refuses (OK false) when fewer than minTail samples lie beyond the rank.
func percentile(vals []float64, p float64) pct {
	out := pct{P: p, N: len(vals)}
	if len(vals) == 0 || p < 0 || p >= 1 {
		return out
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s))-1e-9)) - 1 // nearest rank, 0-based
	if rank < 0 {
		rank = 0
	}
	out.Value = s[rank]
	out.Beyond = len(s) - rank - 1
	out.OK = out.Beyond >= minTail
	return out
}

// String renders the percentile with its support, or why it was refused.
func (p pct) String() string {
	name := fmt.Sprintf("p%g", 100*p.P)
	if !p.OK {
		return fmt.Sprintf("%s=n/a (n=%d, %d beyond < %d)", name, p.N, p.Beyond, minTail)
	}
	return fmt.Sprintf("%s=%.4g (n=%d, %d beyond)", name, p.Value, p.N, p.Beyond)
}

// median is the middle of a handful of repeated measurements (set-up
// repetitions), averaging the two middle values for an even count.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(vals []float64) float64 {
	m := 0.0
	for i, v := range vals {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other and stick out of the parent; only
// the union of their intersections with the parent is subtracted.
func selfTime(parent obs.Span, children []obs.Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// usage is one reading of the process's and the host's counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system time of this process
	sys      time.Duration // system time of this process
	minflt   int64
	gcs      uint64
	steal    uint64 // host-wide steal ticks (/proc/stat)
	hostTick uint64 // host-wide total ticks (/proc/stat)
}

var gcSample = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(gcSample)
	u := usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		sys:    time.Duration(ru.Stime.Nano()),
		minflt: ru.Minflt,
	}
	if gcSample[0].Value.Kind() == metrics.KindUint64 {
		u.gcs = gcSample[0].Value.Uint64()
	}
	u.steal, u.hostTick = procStat()
	return u
}

// procStat returns the host's steal ticks and total ticks from the first
// line of /proc/stat; zeros where the file is unreadable.
func procStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guests are already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// window is the difference of two usage readings: one phase of a run.
type window struct{ from, to usage }

func (w window) wall() time.Duration { return w.to.wall.Sub(w.from.wall) }
func (w window) cpu() time.Duration  { return w.to.cpu - w.from.cpu }

// cpuPerOp is the process CPU time spent inside the window per completed
// operation, in microseconds.
func (w window) cpuPerOp(ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(w.cpu().Microseconds()) / float64(ops)
}

// diag is the noise record of one phase, printed with every result.
type diag struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	SysS      float64 `json:"sys_s"`
	StealFrac float64 `json:"steal_frac"`
	MinorFlt  int64   `json:"minor_faults"`
	GCCycles  uint64  `json:"gc_cycles"`
}

func (w window) diag() diag { return diagOf([]window{w}) }

// diagOf sums the noise of a phase made of several windows (the set-up
// repetitions), leaving out whatever ran between them.
func diagOf(ws []window) diag {
	var d diag
	var steal, ticks uint64
	for _, w := range ws {
		d.WallS += w.wall().Seconds()
		d.CPUS += w.cpu().Seconds()
		d.SysS += (w.to.sys - w.from.sys).Seconds()
		d.MinorFlt += w.to.minflt - w.from.minflt
		d.GCCycles += w.to.gcs - w.from.gcs
		steal += w.to.steal - w.from.steal
		ticks += w.to.hostTick - w.from.hostTick
	}
	if ticks > 0 {
		d.StealFrac = float64(steal) / float64(ticks)
	}
	return d
}

// host is the fingerprint printed with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// peakRSSMiB is the process's peak resident set so far (getrusage max RSS,
// which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// durMS converts durations to milliseconds for percentile math.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// timing is one open-loop request: when it was due, when its full response
// had arrived, and how late the generator handed it to a sender.
type timing struct {
	due, at time.Time
	lag     time.Duration
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i*interval, through senders goroutines that each carry one
// request at a time. do(i) performs request i and returns when its full
// response had arrived. Requests wait for a free sender, so a stall is
// charged to every request due while it lasts: latency runs from the due
// time, never from when a sender picked the request up.
func openLoop(start time.Time, n int, interval time.Duration, senders int, do func(i int) time.Time) []timing {
	out := make([]timing, n)
	work := make(chan int, n) // sized to n so the generator never blocks
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].at = do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		out[i].due = due
		out[i].lag = time.Since(due)
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
