package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/eventbus"
)

// JobState is a job's lifecycle stage.
type JobState string

// Job lifecycle: queued (accepted, waiting for a pool worker) →
// running → one of done / failed / canceled. Shutdown drains running
// jobs and cancels queued ones; DELETE /jobs/{id} cancels either.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// UnitTiming is one executed unit's wall time within a job — the same
// rows experiments.TimingTable prints, made pollable.
type UnitTiming struct {
	Unit   string  `json:"unit"`
	Ms     float64 `json:"ms"`
	Status string  `json:"status"`
}

// JobRequest is the POST /jobs body: any mix of paper units and
// ad-hoc scenarios, computed asynchronously into the shared store.
type JobRequest struct {
	Units     []string   `json:"units,omitempty"`
	Scenarios []Scenario `json:"scenarios,omitempty"`
}

// JobStatus is the GET /jobs/{id} body. Results carries each
// completed unit's (and scenario's) rendered text inline, keyed like
// Timings' Unit column. A job keeps no rendered bytes of its own: each
// result is read from the store when the status is requested, and one
// the store has since evicted is recomputed, byte-identical, whatever
// state the job ended in — so the path keeps working after an
// eviction, and it is the only one for ad-hoc scenario renders.
// ResultsTruncated reports a result the response could not produce.
type JobStatus struct {
	ID               string            `json:"id"`
	State            JobState          `json:"state"`
	Units            []string          `json:"units,omitempty"`
	Scenarios        int               `json:"scenarios,omitempty"`
	Created          time.Time         `json:"created"`
	Started          *time.Time        `json:"started,omitempty"`
	Finished         *time.Time        `json:"finished,omitempty"`
	Timings          []UnitTiming      `json:"timings,omitempty"`
	Results          map[string]string `json:"results,omitempty"`
	ResultsTruncated bool              `json:"results_truncated,omitempty"`
	Error            string            `json:"error,omitempty"`
}

// validJobState reports whether s names a lifecycle state — the
// ?state= filter on GET /v1/jobs rejects anything else.
func validJobState(s JobState) bool {
	switch s {
	case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// scenarioName is the name a job reports its i-th scenario under: the
// spec's own name, or scenario-N (1-based) for an unnamed spec.
func scenarioName(i int, spec Scenario) string {
	if spec.Name != "" {
		return spec.Name
	}
	return fmt.Sprintf("scenario-%d", i+1)
}

// jobResult is one result a finished job reports: its name, the store
// key its bytes live under and the compute that renders them again.
type jobResult struct {
	name string
	key  artifact.Key
	run  func(context.Context) ([]byte, error)
}

// job is one asynchronous computation with its cancellation handle.
type job struct {
	id  string
	req JobRequest

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	timings  []UnitTiming
	results  []jobResult // recorded with the terminal state
	errMsg   string

	// The bounded lifecycle-event backlog GET /v1/jobs/{id}/events
	// replays before going live. evMu also serializes bus emission for
	// this job's topic, so backlog order always matches sequence order
	// (it nests outside the bus lock; nothing on the bus calls back
	// into a job).
	evMu          sync.Mutex
	events        []eventbus.Event
	eventsDropped int64
}

// eventSnapshot copies the backlog for replay: the retained events
// plus how many older ones the backlog cap already shed.
func (j *job) eventSnapshot() ([]eventbus.Event, int64) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	return append([]eventbus.Event(nil), j.events...), j.eventsDropped
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state,
		Units: j.req.Units, Scenarios: len(j.req.Scenarios),
		Created: j.created,
		Timings: append([]UnitTiming(nil), j.timings...),
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// maxFinishedJobs bounds retained terminal jobs: a long-running
// daemon must not grow per submission, so once the cap is exceeded
// the oldest finished jobs are evicted (their artefacts live on in
// the store — only the status record goes). Queued and running jobs
// are never evicted.
const maxFinishedJobs = 512

// jobSet owns every job the server has accepted.
type jobSet struct {
	mu   sync.Mutex
	jobs map[string]*job
	seq  int
	wg   sync.WaitGroup
}

func newJobSet() *jobSet {
	return &jobSet{jobs: map[string]*job{}}
}

func (s *jobSet) add(req JobRequest) *job {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.seq++
	j := &job{
		id:      fmt.Sprintf("job-%08d", s.seq),
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   JobQueued,
		created: time.Now(),
	}
	s.jobs[j.id] = j
	s.pruneLocked()
	s.mu.Unlock()
	s.wg.Add(1)
	return j
}

// pruneLocked evicts the oldest finished jobs beyond maxFinishedJobs.
// Caller holds s.mu.
func (s *jobSet) pruneLocked() {
	var finished []string
	for id, j := range s.jobs {
		j.mu.Lock()
		terminal := j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
		j.mu.Unlock()
		if terminal {
			finished = append(finished, id)
		}
	}
	if len(finished) <= maxFinishedJobs {
		return
	}
	// Zero-padded sequence ids sort chronologically.
	sort.Strings(finished)
	for _, id := range finished[:len(finished)-maxFinishedJobs] {
		delete(s.jobs, id)
	}
}

func (s *jobSet) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobPage is the GET /v1/jobs response envelope: one page of job
// summaries, newest first, plus the cursor that resumes the listing
// after this page (absent on the last page — pass it back as ?cursor=).
type JobPage struct {
	Jobs       []JobStatus `json:"jobs"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// page returns one page of job summaries, newest first. state filters
// to one lifecycle state ("" = all); limit bounds the page; cursor, a
// job id from a previous page's NextCursor, resumes strictly after it
// (ids smaller than the cursor, in the newest-first order). Summaries
// carry identity and lifecycle only — Timings are stripped, and they
// and Results are fetched per job at GET /v1/jobs/{id}.
func (s *jobSet) page(state JobState, limit int, cursor string) JobPage {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	// ids are zero-padded sequence numbers: lexicographic = submission
	// order, reversed for newest-first.
	sort.Slice(all, func(i, k int) bool { return all[i].id > all[k].id })
	page := JobPage{Jobs: []JobStatus{}}
	for _, j := range all {
		if cursor != "" && j.id >= cursor {
			continue
		}
		st := j.status()
		if state != "" && st.State != state {
			continue
		}
		st.Timings = nil
		page.Jobs = append(page.Jobs, st)
		if len(page.Jobs) == limit {
			// More candidates may remain below this id; hand the client
			// a cursor even if the remainder filters to nothing — the
			// next page is then empty and final, which is still correct.
			if j != all[len(all)-1] {
				page.NextCursor = st.ID
			}
			break
		}
	}
	return page
}

// cancelQueued cancels every job still waiting for a worker — the
// shutdown rule: in-flight work drains, queued work aborts.
func (s *jobSet) cancelQueued() {
	s.mu.Lock()
	var queued []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobQueued {
			queued = append(queued, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.cancel()
	}
}
