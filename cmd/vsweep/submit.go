package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/textplot"
)

// submitter runs a sweep's batch on a remote vserved daemon instead of the
// local worker pool: it posts the specs as one job (or as shards jobs),
// polls until each job settles, and hands back the stored statistics in
// spec order. The simulator is deterministic, so figures folded from remote
// Stats are identical to locally computed ones. After each job it pulls the
// server-side span timeline from /jobs/{id}/trace, so the final summary can
// say where every job's wall time went without shelling into the daemon.
type submitter struct {
	base   string // daemon URL, e.g. http://127.0.0.1:9090
	client *http.Client
	// shards > 1 splits the batch into that many contiguous jobs submitted
	// concurrently, so a fleet of workers drains one sweep in parallel; the
	// results are reassembled in spec order, so figures stay byte-identical.
	shards int
	// progress, when non-nil, counts each job's specs as submitted, then as
	// completed when its results arrive.
	progress *harness.Progress

	mu         sync.Mutex
	breakdowns []jobBreakdown // one per completed job, completion order
}

// jobBreakdown is one job's server-side timing, read from its trace. A
// daemon running without tracing leaves the durations zero and Traced
// false.
type jobBreakdown struct {
	Name      string // job label ("vsweep [1/3]")
	JobID     string
	Specs     int
	Traced    bool
	QueueWait time.Duration
	Run       time.Duration
	Store     time.Duration
	Total     time.Duration // whole lifecycle (submit -> terminal)
}

func newSubmitter(url string, shards int, progress *harness.Progress) *submitter {
	return &submitter{
		base:     strings.TrimRight(url, "/"),
		client:   &http.Client{Timeout: 30 * time.Second},
		shards:   shards,
		progress: progress,
	}
}

// run is the sweep's batch on the daemon, blocking until every job
// finishes. It converts every spec before submitting any, so a spec that
// cannot travel (a component closure or an instrument) refuses the whole
// run and no job is created. With shards > 1 the specs split into
// contiguous chunks submitted as separate jobs; their results concatenate
// back in spec order. The context goes unused: vsweep never cancels its
// run, and the client's timeout bounds each request.
func (s *submitter) run(_ context.Context, specs []harness.Spec) ([]harness.Result, error) {
	wire := make([]jobs.SimSpec, len(specs))
	for i, hs := range specs {
		ss, err := jobs.FromHarness(hs)
		if err != nil {
			return nil, fmt.Errorf("-submit refused: spec %d [%s]: %w", i, hs.Label(), err)
		}
		wire[i] = ss
	}
	n := max(1, min(s.shards, len(specs)))
	results := make([][]harness.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		// Contiguous, near-even split: the later chunks get the extra specs.
		lo, hi := i*len(specs)/n, (i+1)*len(specs)/n
		name := "vsweep"
		if n > 1 {
			name = fmt.Sprintf("vsweep [%d/%d]", i+1, n)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.runOne(name, specs[lo:hi], wire[lo:hi])
		}()
	}
	wg.Wait()
	var out []harness.Result
	for i := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// runOne executes specs, in wire form, as a single remote job.
func (s *submitter) runOne(name string, specs []harness.Spec, wire []jobs.SimSpec) ([]harness.Result, error) {
	body, err := json.Marshal(jobs.Request{Name: name, Specs: wire})
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submitting %s: %w", name, err)
	}
	var view jobs.JobView
	if err := decodeOrError(resp, &view); err != nil {
		return nil, fmt.Errorf("submitting %s: %w", name, err)
	}
	fmt.Printf("submitted %s as job %s (%d specs)\n", name, view.ID, len(specs))
	if s.progress != nil {
		s.progress.BatchStart(len(specs))
	}

	job, err := s.wait(view.ID)
	if err != nil {
		return nil, err
	}
	if job.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s (%s) finished %s: %s", job.ID, name, job.State, job.Error)
	}

	b := s.fetchBreakdown(name, job.ID, len(specs))
	s.mu.Lock()
	s.breakdowns = append(s.breakdowns, b)
	s.mu.Unlock()

	resp, err = s.client.Get(s.base + "/jobs/" + job.ID + "/result")
	if err != nil {
		return nil, fmt.Errorf("fetching result of %s: %w", job.ID, err)
	}
	var rs jobs.ResultSet
	if err := decodeOrError(resp, &rs); err != nil {
		return nil, fmt.Errorf("fetching result of %s: %w", job.ID, err)
	}
	if len(rs.Results) != len(specs) {
		return nil, fmt.Errorf("job %s returned %d results for %d specs", job.ID, len(rs.Results), len(specs))
	}
	out := make([]harness.Result, len(specs))
	for i, r := range rs.Results {
		if r.Stats == nil {
			return nil, fmt.Errorf("job %s returned no stats for spec %d", job.ID, i)
		}
		out[i] = harness.Result{Spec: specs[i], Stats: r.Stats}
		if s.progress != nil {
			s.progress.SpecStart()
			s.progress.SpecDone(r.Stats, nil, b.Run/time.Duration(len(specs)))
		}
	}
	return out, nil
}

// wait polls the job until it reaches a terminal state.
func (s *submitter) wait(id string) (jobs.Job, error) {
	for {
		resp, err := s.client.Get(s.base + "/jobs/" + id)
		if err != nil {
			return jobs.Job{}, fmt.Errorf("polling job %s: %w", id, err)
		}
		var view jobs.JobView
		if err := decodeOrError(resp, &view); err != nil {
			return jobs.Job{}, fmt.Errorf("polling job %s: %w", id, err)
		}
		if view.State.Terminal() {
			return view.Job, nil
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// fetchBreakdown reads a finished job's span timeline from the daemon. Any
// failure (tracing disabled, old daemon, spans already evicted from the
// ring) degrades to an untraced breakdown instead of failing the sweep.
func (s *submitter) fetchBreakdown(name, id string, specs int) jobBreakdown {
	b := jobBreakdown{Name: name, JobID: id, Specs: specs}
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/trace")
	if err != nil {
		return b
	}
	var view struct {
		Spans []struct {
			Name       string  `json:"name"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"spans"`
	}
	if err := decodeOrError(resp, &view); err != nil {
		return b
	}
	for _, sp := range view.Spans {
		d := time.Duration(sp.DurationMS * float64(time.Millisecond))
		switch sp.Name {
		case "queue_wait":
			b.QueueWait += d
		case "run":
			b.Run += d // retries sum
		case "store":
			b.Store += d
		case "job":
			b.Total = d
		default:
			continue
		}
		b.Traced = true
	}
	return b
}

// summary prints the per-job server-side breakdown gathered from the trace
// endpoint.
func (s *submitter) summary() {
	if len(s.breakdowns) == 0 {
		return
	}
	section("Remote job breakdown (server-side, from /jobs/{id}/trace)")
	traced := false
	var rows [][]string
	for _, b := range s.breakdowns {
		if !b.Traced {
			rows = append(rows, []string{b.Name, b.JobID, fmt.Sprint(b.Specs), "-", "-", "-", "-"})
			continue
		}
		traced = true
		rows = append(rows, []string{
			b.Name, b.JobID, fmt.Sprint(b.Specs),
			b.QueueWait.Round(time.Millisecond).String(),
			b.Run.Round(time.Millisecond).String(),
			b.Store.Round(time.Millisecond).String(),
			b.Total.Round(time.Millisecond).String(),
		})
	}
	fmt.Print(textplot.Table(
		[]string{"Batch", "Job", "Specs", "Queue wait", "Run", "Store", "Total"}, rows))
	if !traced {
		fmt.Println("(daemon reported no spans; start vserved with tracing enabled for timings)")
	}
}

// decodeOrError decodes a 2xx JSON body into v, or surfaces the API's JSON
// error message.
func decodeOrError(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("daemon: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("daemon: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
