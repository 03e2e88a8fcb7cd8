package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
)

// errEnvelope decodes the v1 error body.
type errEnvelope struct {
	Error apiError `json:"error"`
}

func decodeErr(t *testing.T, b []byte) apiError {
	t.Helper()
	var env errEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("body %q is not an error envelope: %v", b, err)
	}
	return env.Error
}

// TestErrorEnvelope pins the uniform v1 error shape: every failure is
// JSON with a stable machine-readable code, never ad-hoc text.
func TestErrorEnvelope(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodGet, "/v1/units/fig99", "", http.StatusNotFound, "unknown_unit"},
		{http.MethodGet, "/v1/units/warm-roster", "", http.StatusNotFound, "unknown_unit"}, // hidden primer
		{http.MethodPost, "/v1/units/fig6", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodGet, "/v1/scenarios", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/v1/scenarios", "not json", http.StatusBadRequest, "bad_body"},
		{http.MethodPost, "/v1/scenarios", `{"workloads": ["Z-Nothing"]}`, http.StatusBadRequest, "invalid_scenario"},
		{http.MethodPost, "/v1/jobs", `{}`, http.StatusBadRequest, "invalid_job"},
		{http.MethodPost, "/v1/jobs", `{"units": ["fig99"]}`, http.StatusBadRequest, "unknown_unit"},
		{http.MethodPost, "/v1/jobs", `{"units": ["warm-reps"]}`, http.StatusBadRequest, "unknown_unit"}, // hidden primer
		{http.MethodPost, "/v1/jobs", `{"scenarios": [{"name": "a", "workloads": ["H-Grep"]}, {"name": "a", "workloads": ["S-Sort"]}]}`, http.StatusBadRequest, "invalid_job"},
		{http.MethodPost, "/v1/jobs", "garbage", http.StatusBadRequest, "bad_body"},
		{http.MethodGet, "/v1/jobs/job-99999999", "", http.StatusNotFound, "unknown_job"},
		{http.MethodGet, "/v1/jobs?state=flying", "", http.StatusBadRequest, "invalid_query"},
		{http.MethodGet, "/v1/jobs?limit=0", "", http.StatusBadRequest, "invalid_query"},
		{http.MethodGet, "/v1/jobs?limit=9999", "", http.StatusBadRequest, "invalid_query"},
		{http.MethodGet, "/v1/jobs?cursor=banana", "", http.StatusBadRequest, "invalid_query"},
		{http.MethodPut, "/v1/jobs", "", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, c := range cases {
		var rd io.Reader
		if c.body != "" {
			rd = strings.NewReader(c.body)
		}
		req, err := http.NewRequest(c.method, ts.URL+c.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.status, b)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s %s: error Content-Type %q", c.method, c.path, ct)
		}
		if e := decodeErr(t, b); e.Code != c.code || e.Message == "" {
			t.Errorf("%s %s: envelope %+v, want code %q", c.method, c.path, e, c.code)
		}
	}
}

// seedJobs plants n terminal jobs directly in the set (no computation)
// with alternating done/failed states, returning their ids oldest
// first. Each records one result, whose compute returns "data".
func seedJobs(srv *Server, n int) []string {
	ids := make([]string, n)
	res := jobResult{name: "table1", key: artifact.KeyOf("seeded-result", "table1"),
		run: func(context.Context) ([]byte, error) { return []byte("data"), nil }}
	for i := 0; i < n; i++ {
		j := srv.jobs.add(JobRequest{Units: []string{"table1"}})
		j.mu.Lock()
		if i%2 == 0 {
			j.state = JobDone
		} else {
			j.state = JobFailed
		}
		j.finished = time.Now()
		j.timings = []UnitTiming{{Unit: "table1", Ms: 1, Status: "ok"}}
		j.results = []jobResult{res}
		j.mu.Unlock()
		srv.jobs.wg.Done()
		ids[i] = j.id
	}
	return ids
}

// TestJobsPagination pins the GET /v1/jobs wire contract: newest-first
// pages of summaries (no timings, no results), cursor resumption
// walking the full set exactly once, state filtering, and no cursor on
// the final page.
func TestJobsPagination(t *testing.T) {
	srv, ts := startServer(t, Config{})
	ids := seedJobs(srv, 7)

	getPage := func(query string) JobPage {
		t.Helper()
		code, _, b := get(t, ts.URL+"/v1/jobs"+query)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: %d: %s", query, code, b)
		}
		var page JobPage
		if err := json.Unmarshal(b, &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Walk with limit=3: 3 + 3 + 1, newest first, each summary
	// stripped of its heavy fields.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination never terminated")
		}
		q := "?limit=3"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		page := getPage(q)
		for _, j := range page.Jobs {
			if len(j.Timings) != 0 || len(j.Results) != 0 {
				t.Fatalf("summary %s carries timings/results", j.ID)
			}
			walked = append(walked, j.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(ids) {
		t.Fatalf("walked %d jobs, want %d: %v", len(walked), len(ids), walked)
	}
	for i, id := range walked {
		if want := ids[len(ids)-1-i]; id != want {
			t.Fatalf("position %d: %s, want %s (newest first)", i, id, want)
		}
	}

	// State filter: the 4 done jobs only.
	done := getPage("?state=done")
	if len(done.Jobs) != 4 {
		t.Fatalf("state=done returned %d jobs, want 4", len(done.Jobs))
	}
	for _, j := range done.Jobs {
		if j.State != JobDone {
			t.Fatalf("state=done returned a %s job", j.State)
		}
	}

	// Default limit covers the whole set in one cursorless page.
	all := getPage("")
	if len(all.Jobs) != 7 || all.NextCursor != "" {
		t.Fatalf("default page: %d jobs cursor %q", len(all.Jobs), all.NextCursor)
	}

	// Full detail still lives at the per-job endpoint.
	code, _, b := get(t, ts.URL+"/v1/jobs/"+ids[0])
	var st JobStatus
	if code != http.StatusOK || json.Unmarshal(b, &st) != nil || len(st.Results) == 0 {
		t.Fatalf("job detail: %d: %s", code, b)
	}
}

// FuzzJobsEventsQuery sends arbitrary ?state=, ?limit= and ?cursor=
// values to GET /v1/jobs and an arbitrary ?topics= filter to GET
// /v1/events (its request context already cancelled, so the stream
// ends at once) through the server's handler. Every answer must be a
// 200 or a 400 invalid_query envelope, never a panic or a 5xx, and a
// job page never holds more summaries than its limit.
func FuzzJobsEventsQuery(f *testing.F) {
	srv, err := New(Config{Opt: tinyOpt()})
	if err != nil {
		f.Fatal(err)
	}
	seedJobs(srv, 5)
	h := srv.Handler()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	serve := func(t *testing.T, ctx context.Context, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
		if rec.Code == http.StatusBadRequest {
			var env errEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "invalid_query" {
				t.Fatalf("GET %s: 400 body %q is not an invalid_query envelope", target, rec.Body.Bytes())
			}
		} else if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, state, limit, cursor, topics string) {
		q := url.Values{"state": {state}, "limit": {limit}, "cursor": {cursor}}
		if rec := serve(t, context.Background(), "/v1/jobs?"+q.Encode()); rec.Code == http.StatusOK {
			var page JobPage
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("jobs page %q: %v", rec.Body.Bytes(), err)
			}
			want := 100
			if limit != "" {
				want, _ = strconv.Atoi(limit) // accepted, so it parses
			}
			if len(page.Jobs) > want {
				t.Fatalf("limit %q returned %d summaries", limit, len(page.Jobs))
			}
		}
		serve(t, cancelled, "/v1/events?"+url.Values{"topics": {topics}}.Encode())
	})
}
