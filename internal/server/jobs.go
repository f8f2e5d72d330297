package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"smokescreen/internal/estimate"
)

// JobState is a generation job's lifecycle position. The state machine is
// linear: queued -> running -> {done | failed | canceled}. Jobs never
// retry in place; a failed or canceled key is retried by the next POST
// that misses the store.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
	// JobCanceled marks a job stopped before producing its artifact: a
	// client DELETEd it, or the job deadline fired. Distinct from failed —
	// nothing went wrong with the generation itself.
	JobCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func terminal(s JobState) bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// codeDegenerateCorrection marks a generation that failed because the
// request has no finite answer, not because the service broke: the
// correction set's own estimate is zero, so Algorithm 3 cannot bound the
// degraded answer (estimate.ErrDegenerateCorrection). The POST answers 422
// with this code; retrying the same request cannot succeed.
const codeDegenerateCorrection = "degenerate_correction"

// Job is one asynchronous profile generation. All mutable fields are
// guarded by the owning jobSet's mutex; done is closed exactly once on
// entering a terminal state, so waiters can select on it.
type Job struct {
	ID  string
	Key string
	// Query is the canonical query string, for operators reading job
	// listings.
	Query string
	// req is the full request the worker replays.
	req GenRequest

	state     JobState
	err       string
	errCode   string // machine-readable class of err ("" when unclassified)
	created   time.Time
	started   time.Time
	finished  time.Time
	coalesced int // requests that attached to this job beyond the first

	// cancel stops the running generation's context; set by start, nil
	// while queued (a queued job cancels by state transition alone).
	cancel context.CancelFunc

	done chan struct{}
}

// JobStatus is the wire form of a job, snapshotted under the set lock.
type JobStatus struct {
	ID    string   `json:"id"`
	Key   string   `json:"key"`
	Query string   `json:"query"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Code classifies Error for clients that branch on it; see
	// codeDegenerateCorrection.
	Code      string    `json:"code,omitempty"`
	Coalesced int       `json:"coalesced"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// jobSet tracks jobs by id and coalesces active ones by key. Terminal
// jobs stay queryable until the bounded history evicts them.
type jobSet struct {
	mu      sync.Mutex
	nextID  int
	byID    map[string]*Job
	history []string // insertion-ordered ids, for eviction
	active  map[string]*Job
	// lastDone is each key's latest successful job still in byID; see
	// getOrCreate.
	lastDone map[string]*Job
	// idPrefix namespaces generated ids per node (Config.JobIDPrefix).
	idPrefix string
}

// jobHistory bounds the generation jobs and, separately, the streams a
// daemon keeps queryable; the oldest terminal ones are evicted first.
const jobHistory = 1024

func newJobSet(idPrefix string) *jobSet {
	return &jobSet{
		byID:     make(map[string]*Job),
		active:   make(map[string]*Job),
		lastDone: make(map[string]*Job),
		idPrefix: idPrefix,
	}
}

// getOrCreate returns the job a request for key waits on, or registers a
// new one built from req. created reports whether the caller owns
// enqueueing it; when false the request coalesced onto the key's active
// job — or onto one that finished after began, the moment the request
// started the store read that missed. A job's Put precedes its finish, so
// such a job proves the miss stale (the read raced the Put) and generating
// again would cost the key a second generation; a job that finished before
// began proves the miss genuine — a corrupt or deleted entry — and the key
// regenerates.
func (js *jobSet) getOrCreate(key, query string, req GenRequest, began, now time.Time) (job *Job, created bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	job = js.active[key]
	if last := js.lastDone[key]; job == nil && last != nil && last.finished.After(began) {
		job = last
	}
	if job != nil {
		job.coalesced++
		return job, false
	}
	js.nextID++
	job = &Job{
		ID:      js.idPrefix + jobID(js.nextID),
		Key:     key,
		Query:   query,
		req:     req,
		state:   JobQueued,
		created: now,
		done:    make(chan struct{}),
	}
	js.active[key] = job
	js.byID[job.ID] = job
	js.history = append(js.history, job.ID)
	js.evictLocked()
	return job, true
}

// jobID renders a stable, log-friendly id.
func jobID(n int) string {
	const digits = "0123456789"
	buf := []byte("job-000000")
	for i := len(buf) - 1; n > 0 && i >= 4; i-- {
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf)
}

// evictLocked drops the oldest terminal jobs beyond the history limit.
func (js *jobSet) evictLocked() {
	js.history = evictTerminal(js.byID, js.history,
		func(job *Job) bool { return terminal(job.state) },
		func(job *Job) {
			if js.lastDone[job.Key] == job {
				delete(js.lastDone, job.Key)
			}
		})
}

// evictTerminal is the history rule generation jobs and streams share:
// while byID holds more than jobHistory entries, drop the oldest terminal
// one — order is byID's ids in insertion order — and tell dropped. An active
// entry is never evicted, so a set that is all active grows past the
// limit. It returns the remaining order; callers hold their set's lock.
func evictTerminal[T any](byID map[string]T, order []string, isTerminal func(T) bool, dropped func(T)) []string {
	for i := 0; len(byID) > jobHistory && i < len(order); {
		v := byID[order[i]]
		if !isTerminal(v) {
			i++
			continue
		}
		delete(byID, order[i])
		dropped(v)
		order = slices.Delete(order, i, i+1)
	}
	return order
}

// abandon removes a job that never made it into the queue (backpressure
// or drain rejected it) so the key can be retried immediately.
func (js *jobSet) abandon(job *Job) {
	js.mu.Lock()
	defer js.mu.Unlock()
	delete(js.active, job.Key)
	delete(js.byID, job.ID)
	for i, id := range js.history {
		if id == job.ID {
			js.history = append(js.history[:i], js.history[i+1:]...)
			break
		}
	}
}

// start transitions a job to running and arms its cancel func. It
// returns false when the job was canceled while still queued — the worker
// must skip it without running the generation (the cancel path already
// finalized the job).
func (js *jobSet) start(job *Job, now time.Time, cancel context.CancelFunc) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if job.state != JobQueued {
		return false
	}
	job.state = JobRunning
	job.started = now
	job.cancel = cancel
	return true
}

// cancel stops a job: a queued job transitions straight to canceled, a
// running one has its context canceled (the worker's finish maps the
// resulting context error to canceled). Terminal jobs are left alone, so
// DELETE is idempotent. It reports whether this call initiated a
// cancellation.
func (js *jobSet) cancel(job *Job, now time.Time) bool {
	js.mu.Lock()
	switch job.state {
	case JobQueued:
		job.state = JobCanceled
		job.err = context.Canceled.Error()
		job.finished = now
		delete(js.active, job.Key)
		js.mu.Unlock()
		close(job.done)
		return true
	case JobRunning:
		cancel := job.cancel
		js.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		js.mu.Unlock()
		return false
	}
}

// finish transitions a job to its terminal state, releases the key for
// future requests, and wakes every waiter. Context cancellation and
// deadline expiry finish as canceled, not failed: the generation itself
// did nothing wrong, and operators alert on failure counts.
func (js *jobSet) finish(job *Job, genErr error, now time.Time) {
	js.mu.Lock()
	switch {
	case genErr == nil:
		job.state = JobDone
		js.lastDone[job.Key] = job
	case errors.Is(genErr, context.Canceled) || errors.Is(genErr, context.DeadlineExceeded):
		job.state = JobCanceled
		job.err = genErr.Error()
	default:
		job.state = JobFailed
		job.err = genErr.Error()
		if errors.Is(genErr, estimate.ErrDegenerateCorrection) {
			job.errCode = codeDegenerateCorrection
		}
	}
	job.finished = now
	delete(js.active, job.Key)
	js.mu.Unlock()
	close(job.done)
}

// get returns the job with the given id.
func (js *jobSet) get(id string) (*Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	job, ok := js.byID[id]
	return job, ok
}

// status snapshots a job under the lock.
func (js *jobSet) status(job *Job) JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	return JobStatus{
		ID:        job.ID,
		Key:       job.Key,
		Query:     job.Query,
		State:     job.state,
		Error:     job.err,
		Code:      job.errCode,
		Coalesced: job.coalesced,
		Created:   job.created,
		Started:   job.started,
		Finished:  job.finished,
	}
}

// counts reports how many tracked jobs are in each state.
func (js *jobSet) counts() (queued, running, done, failed, canceled int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	for _, job := range js.byID {
		switch job.state {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		case JobDone:
			done++
		case JobFailed:
			failed++
		case JobCanceled:
			canceled++
		}
	}
	return
}
