package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"valuespec/internal/harness"
	"valuespec/internal/obs"
)

// JobView is a Job as the HTTP API serves it: the durable record plus, for a
// running job, its live progress snapshot.
type JobView struct {
	Job
	Progress *harness.ProgressSnapshot `json:"progress,omitempty"`
}

// JobSummary is the compact listing form of a job: the lifecycle record
// without the request payload, so polling a listing of thousands of jobs —
// which is what the load harness's drain loop does — costs bytes
// proportional to the job count, not to the submitted spec matrices.
type JobSummary struct {
	ID          string    `json:"id"`
	Seq         int64     `json:"seq"`
	State       State     `json:"state"`
	SpecHash    string    `json:"spec_hash"`
	Attempts    int       `json:"attempts"`
	Deduped     bool      `json:"deduped,omitempty"`
	Worker      string    `json:"worker,omitempty"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// Summary shrinks a job to its listing form.
func (j Job) Summary() JobSummary {
	return JobSummary{
		ID:          j.ID,
		Seq:         j.Seq,
		State:       j.State,
		SpecHash:    j.SpecHash,
		Attempts:    j.Attempts,
		Deduped:     j.Deduped,
		Worker:      j.Worker,
		Error:       j.Error,
		SubmittedAt: j.SubmittedAt,
		StartedAt:   j.StartedAt,
		FinishedAt:  j.FinishedAt,
	}
}

// Handler returns the job API as an http.Handler rooted at /jobs, ready to
// mount into the obsweb server (or any mux):
//
//	POST   /jobs              submit a Request; 202 and the job record
//	                          (200 when answered from the result store,
//	                          413 for a body over MaxRequestBytes)
//	GET    /jobs              list every job, oldest first
//	                          (?view=summary for the compact form)
//	GET    /jobs/{id}         one job, with live progress while running
//	GET    /jobs/{id}/result  the stored Stats; ?format=csv for CSV
//	DELETE /jobs/{id}         cancel a queued or running job
//
// Every response is JSON except the CSV result form; errors are JSON
// {"error": "..."} with the usual status codes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	return mux
}

// SpanView is one recorded span as GET /jobs/{id}/trace serves it.
type SpanView struct {
	Name        string            `json:"name"`
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	DurationMS  float64           `json:"duration_ms"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// TraceView is the JSON body of GET /jobs/{id}/trace: the job's recorded
// spans, oldest start first.
type TraceView struct {
	Job   string     `json:"job"`
	State State      `json:"state"`
	Spans []SpanView `json:"spans"`
}

// spanViews shapes spans for JSON, sorted by start time (ties broken by
// emission order, so queue_wait precedes the job span it nests inside).
func spanViews(spans []obs.Span) []SpanView {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	views := make([]SpanView, len(spans))
	for i, sp := range spans {
		v := SpanView{
			Name:        sp.Name,
			StartUnixNS: sp.Start,
			EndUnixNS:   sp.End,
			DurationMS:  float64(sp.Duration()) / float64(time.Millisecond),
		}
		if attrs := sp.Attrs(); len(attrs) > 0 {
			v.Attrs = make(map[string]string, len(attrs))
			for _, a := range attrs {
				v.Attrs[a.Key] = a.Value
			}
		}
		views[i] = v
	}
	return views
}

// handleTrace serves a job's span timeline. The tracer is a bounded ring,
// so a long-finished job's spans may have been overwritten; the endpoint
// then returns an empty span list rather than an error. ?format=chrome
// renders the timeline as Chrome trace JSON for Perfetto.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	tracer := s.cfg.Tracer
	if tracer == nil {
		httpError(w, http.StatusNotImplemented, "tracing is disabled on this daemon")
		return
	}
	spans := tracer.Spans(id)
	if strings.EqualFold(r.URL.Query().Get("format"), "chrome") {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, spans)
		return
	}
	writeJSON(w, http.StatusOK, TraceView{Job: id, State: job.State, Spans: spanViews(spans)})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v indented with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// view decorates a job with its live progress, when it has any.
func (s *Service) view(job Job) JobView {
	v := JobView{Job: job}
	if snap, ok := s.Progress(job.ID); ok {
		v.Progress = &snap
	}
	return v
}

// decodeRequest decodes a submitted body strictly: unknown fields are
// errors, so a misspelled field cannot silently select a default.
func decodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "decoding request: %v", err)
		return
	}
	job, deduped, err := s.Submit(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, s.view(job))
}

// listPage is the GET /jobs response envelope. Total always reports the
// full job count, so a paging client (?offset=&limit=) knows when to stop;
// without paging parameters one page carries everything and Offset/Limit
// echo 0.
type listPage[T any] struct {
	Jobs   []T `json:"jobs"`
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit,omitempty"`
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, err := queryInt(q.Get("offset"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad offset: %v", err)
		return
	}
	limit, err := queryInt(q.Get("limit"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad limit: %v", err)
		return
	}
	jobsList, total := s.queue.ListRange(offset, limit)
	if strings.EqualFold(q.Get("view"), "summary") {
		sums := make([]JobSummary, len(jobsList))
		for i, j := range jobsList {
			sums[i] = j.Summary()
		}
		writeJSON(w, http.StatusOK, listPage[JobSummary]{Jobs: sums, Total: total, Offset: offset, Limit: limit})
		return
	}
	views := make([]JobView, len(jobsList))
	for i, j := range jobsList {
		views[i] = s.view(j)
	}
	writeJSON(w, http.StatusOK, listPage[JobView]{Jobs: views, Total: total, Offset: offset, Limit: limit})
}

// queryInt parses a non-negative integer query parameter; empty means 0.
func queryInt(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	return n, nil
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.view(job))
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if job.State != StateDone {
		httpError(w, http.StatusConflict, "job %s is %s, not done", id, job.State)
		return
	}
	rs, err := s.Result(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "csv") {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_ = rs.WriteCSV(w)
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, s.view(job))
	case errors.Is(err, ErrFinished):
		httpError(w, http.StatusConflict, "job %s already finished as %s", id, job.State)
	case strings.Contains(err.Error(), "unknown job"):
		httpError(w, http.StatusNotFound, "%v", err)
	default:
		httpError(w, http.StatusConflict, "%v", err)
	}
}
