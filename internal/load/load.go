// Package load is the load-generation, soak and chaos harness for the
// simulation job service: the empirical counterpart of the service layer's
// durability and latency claims, just as the paper validates its analytical
// model against simulation rather than trusting it by construction.
//
// The pieces compose as cmd/vsload wires them:
//
//   - SpecSource generates tiny synthetic simulation requests in two
//     distributions: Hotkey (a small pool of duplicate-heavy specs, driving
//     the content-addressed result store's dedup path under contention) and
//     Uniform (every submission unique, driving the durable queue and the
//     worker pool).
//   - Runner paces submissions against a running vserved at a target rate
//     and concurrency, samples queue depth over time, then drains: every
//     acknowledged job must reach a terminal state within the deadline.
//     Its latency percentiles are exact, read from every recorded sample.
//   - Reconcile verifies exactly-once execution against the daemon's
//     durable /jobs listing: no acknowledged job lost, none duplicated,
//     every completed job's result present under the expected content hash.
//     Chaos soaks (a Proc's kill -9 + restart mid-run) reuse the same check.
//   - SLO is a declarative threshold spec (SLO_BASELINE.json) evaluated
//     over the final Report; violations make vsload exit nonzero, the same
//     contract cmd/benchcheck enforces for the simulator hot paths.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"valuespec/internal/jobs"
)

// SubmitAck is the accepted-submission record the daemon returns: everything
// reconciliation later needs to hold the service to its exactly-once claim.
type SubmitAck struct {
	ID       string     `json:"id"`
	SpecHash string     `json:"spec_hash"`
	State    jobs.State `json:"state"`
	Deduped  bool       `json:"deduped,omitempty"`
}

// progressView is the subset of the daemon's /progress snapshot the sampler
// reads (jobs.Snapshot as served by vserved).
type progressView struct {
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`
}

// Client is the HTTP client of the vserved job API, shared by the soak
// harness and vsweep -submit. The base URL is swappable at runtime, which
// is how a chaos restart redirects in-flight submitters to the reborn
// daemon's new ephemeral port. A reply outside 2xx comes back as an error
// carrying the API's JSON error message and the HTTP status. Safe for
// concurrent use.
type Client struct {
	http *http.Client

	mu   sync.RWMutex
	base string
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:9090").
func NewClient(base string) *Client {
	return &Client{
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				// Keep connections alive across thousands of submissions per
				// second; the default of 2 idle conns per host would churn
				// through ephemeral ports.
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
			},
		},
		base: base,
	}
}

// Base returns the current base URL.
func (c *Client) Base() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

// SetBase atomically redirects the client to a new base URL (a restarted
// daemon's address).
func (c *Client) SetBase(base string) {
	c.mu.Lock()
	c.base = base
	c.mu.Unlock()
}

// do sends one request to the daemon and decodes a 2xx JSON reply into v
// (nil skips the body). Any other status is an error carrying the API's
// JSON error message, or the start of the body, and the status.
func (c *Client) do(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, c.Base()+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("load: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("load: %s %s: daemon unreachable: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			msg = []byte(e.Error)
		}
		return fmt.Errorf("load: %s %s: %s (HTTP %d)", method, path, bytes.TrimSpace(msg), resp.StatusCode)
	}
	if v == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("load: %s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// get is do for a GET.
func (c *Client) get(path string, v any) error {
	return c.do(http.MethodGet, path, nil, v)
}

// Healthy probes GET /healthz; any error means the daemon is unreachable.
func (c *Client) Healthy() error {
	return c.get("/healthz", nil)
}

// Submit POSTs one request to /jobs and returns the daemon's acknowledgment.
func (c *Client) Submit(req jobs.Request) (SubmitAck, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitAck{}, fmt.Errorf("load: encoding request: %w", err)
	}
	var ack SubmitAck
	if err := c.do(http.MethodPost, "/jobs", body, &ack); err != nil {
		return SubmitAck{}, err
	}
	if ack.ID == "" {
		return SubmitAck{}, errors.New("load: submit response has no job id")
	}
	return ack, nil
}

// Job fetches one job's durable record (GET /jobs/{id}).
func (c *Client) Job(id string) (jobs.Job, error) {
	var j jobs.Job
	err := c.get("/jobs/"+id, &j)
	return j, err
}

// Result fetches a done job's stored results (GET /jobs/{id}/result).
func (c *Client) Result(id string) (*jobs.ResultSet, error) {
	var rs jobs.ResultSet
	if err := c.get("/jobs/"+id+"/result", &rs); err != nil {
		return nil, err
	}
	return &rs, nil
}

// Trace fetches a job's span timeline (GET /jobs/{id}/trace).
func (c *Client) Trace(id string) (jobs.TraceView, error) {
	var tv jobs.TraceView
	err := c.get("/jobs/"+id+"/trace", &tv)
	return tv, err
}

// Summaries fetches the compact job listing (GET /jobs?view=summary): every
// job's state without the request payloads, so a drain loop over thousands
// of jobs stays cheap.
func (c *Client) Summaries() ([]jobs.JobSummary, error) {
	// Page through the listing so a drain loop over tens of thousands of
	// jobs never asks the daemon for one giant response.
	const pageSize = 1000
	var all []jobs.JobSummary
	for offset := 0; ; {
		var out struct {
			Jobs  []jobs.JobSummary `json:"jobs"`
			Total int               `json:"total"`
		}
		if err := c.get(fmt.Sprintf("/jobs?view=summary&offset=%d&limit=%d", offset, pageSize), &out); err != nil {
			return nil, err
		}
		all = append(all, out.Jobs...)
		offset += len(out.Jobs)
		// A short page (or an older daemon that serves everything at once,
		// reporting total 0) ends the walk.
		if len(out.Jobs) < pageSize || offset >= out.Total {
			return all, nil
		}
	}
}

// ResultHash fetches a done job's stored result and returns its content
// hash, verifying the result actually exists and parses. It decodes only
// the hash, so reconciling thousands of jobs stays cheap.
func (c *Client) ResultHash(id string) (string, error) {
	var rs struct {
		SpecHash string `json:"spec_hash"`
	}
	err := c.get("/jobs/"+id+"/result", &rs)
	return rs.SpecHash, err
}

// QueueDepth samples the daemon's /progress snapshot; ok is false when the
// endpoint is unreachable or not serving a daemon snapshot (e.g. mid
// chaos-restart), which the sampler simply skips.
func (c *Client) QueueDepth() (depth, inflight int, ok bool) {
	var v progressView
	if err := c.get("/progress", &v); err != nil {
		return 0, 0, false
	}
	return v.QueueDepth, v.Inflight, true
}
