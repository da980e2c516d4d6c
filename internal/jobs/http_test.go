package jobs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// postJob submits a request over the API and decodes the job view.
func postJob(t *testing.T, ts *httptest.Server, req Request) (JobView, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return v, resp
}

// waitHTTP polls GET /jobs/{id} until the job is terminal.
func waitHTTP(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestHTTPLifecycle drives the whole API surface end to end: submit, list,
// status, result in both formats, dedup on re-submit, cancel conflicts and
// the error statuses.
func TestHTTPLifecycle(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit.
	req := Request{Name: "api", Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}}
	v, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+v.ID {
		t.Errorf("Location = %q", loc)
	}

	// List.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Errorf("GET /jobs = %+v", list.Jobs)
	}

	// Result, after completion.
	final := waitHTTP(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	rresp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rs ResultSet
	if err := json.NewDecoder(rresp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || len(rs.Results) != 1 || rs.Results[0].Stats == nil {
		t.Fatalf("GET result = %d, %+v", rresp.StatusCode, rs)
	}

	// CSV form.
	cresp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if ct := cresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("CSV Content-Type = %q", ct)
	}
	if !strings.HasPrefix(string(csv), "workload,scale,config,model,setting,") {
		t.Errorf("CSV = %q", string(csv)[:min(len(csv), 80)])
	}

	// Duplicate submit: 200, deduped.
	dup, dresp := postJob(t, ts, req)
	if dresp.StatusCode != http.StatusOK || !dup.Deduped || dup.State != StateDone {
		t.Errorf("duplicate POST = %d, %+v", dresp.StatusCode, dup)
	}

	// Cancel on a finished job conflicts.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	xresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, xresp.Body)
	xresp.Body.Close()
	if xresp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE done job = %d, want 409", xresp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(resp *http.Response, want int, what string) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Errorf("%s = %d (%s), want %d", what, resp.StatusCode, body, want)
		}
		if want >= 400 && !strings.Contains(string(body), "\"error\"") {
			t.Errorf("%s error body = %s, want JSON error", what, body)
		}
	}

	// Malformed and invalid bodies.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "POST malformed")
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"specs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "POST empty specs")
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"specs":[{"workload":"nope"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "POST unknown workload")
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"specs":[{"workload":"xlisp","config":{"BranchHistoryBits":40}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "POST outside the envelope")
	huge := `{"name":"` + strings.Repeat("x", MaxRequestBytes) + `","specs":[{"workload":"xlisp"}]}`
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusRequestEntityTooLarge, "POST oversized body")

	// Unknown ids.
	resp, err = http.Get(ts.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "GET unknown job")
	resp, err = http.Get(ts.URL + "/jobs/j999999/result")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "GET unknown result")
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/j999999", nil)
	resp, err = http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "DELETE unknown job")

	// Result of a job that has not run (no workers): 409.
	v, presp := postJob(t, ts, Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", presp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusConflict, "GET result of queued job")
}

// TestHTTPListPagination: GET /jobs pages with ?offset=&limit= and reports
// the total, in both the full and the summary view.
func TestHTTPListPagination(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 7
	var ids []string
	for i := 0; i < n; i++ {
		req := Request{Name: "page", Specs: []SimSpec{{Workload: "compress", Scale: i + 1}}}
		job, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	fetch := func(query string) (pageIDs []string, total int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs%s = %d", query, resp.StatusCode)
		}
		var out struct {
			Jobs  []JobSummary `json:"jobs"`
			Total int          `json:"total"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		for _, j := range out.Jobs {
			pageIDs = append(pageIDs, j.ID)
		}
		return pageIDs, out.Total
	}

	// Walk in pages of 3: 3 + 3 + 1, all ids in order, total constant.
	var walked []string
	for offset := 0; ; offset += 3 {
		page, total := fetch("?view=summary&offset=" + strconv.Itoa(offset) + "&limit=3")
		if total != n {
			t.Fatalf("total = %d, want %d", total, n)
		}
		if len(page) == 0 {
			break
		}
		walked = append(walked, page...)
	}
	if strings.Join(walked, ",") != strings.Join(ids, ",") {
		t.Errorf("paged walk %v != submitted %v", walked, ids)
	}

	// No parameters: one page with everything (back-compat shape).
	all, total := fetch("?view=summary")
	if len(all) != n || total != n {
		t.Errorf("unpaged list has %d jobs, total %d, want %d", len(all), total, n)
	}

	// Past the end: empty page, total intact.
	tail, total := fetch("?view=summary&offset=100&limit=3")
	if len(tail) != 0 || total != n {
		t.Errorf("past-end page has %d jobs, total %d", len(tail), total)
	}

	// Bad parameters: 400.
	resp, err := http.Get(ts.URL + "/jobs?offset=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative offset = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs?limit=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk limit = %d, want 400", resp.StatusCode)
	}
}
