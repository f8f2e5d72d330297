package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smokescreen/internal/estimate"
	"smokescreen/internal/stream"
)

// JobState is a daemon job's lifecycle position. The state machine is
// linear: queued -> running -> {done | failed | canceled}; a stream starts
// running. Jobs never retry in place; a failed or canceled key is retried
// by the next POST that misses the store.
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

// job is one unit of daemon work — a profile generation or a stream — and
// the lifecycle both share. Its mutable fields are guarded by its
// registry's mutex; done is closed exactly once, on entering a terminal
// state, so waiters can select on it.
type job struct {
	id    string
	mu    *sync.Mutex // the registry's
	done  chan struct{}
	key   string // a generation's artifact key; "" for a stream
	query string // the canonical query, for operators reading listings
	// req is the request a generation's worker replays.
	req GenRequest
	// rs and recv are a stream's pipeline.
	rs   *ResolvedStream
	recv *stream.Receiver

	state     JobState
	err       string
	errCode   string // machine-readable class of err ("" when unclassified)
	created   time.Time
	started   time.Time
	finished  time.Time
	coalesced int                   // requests that attached to this job beyond the first
	windows   []stream.WindowResult // a stream's last streamWindowHistory windows

	// cancel stops the running job's context: a generation's is armed by
	// start (a queued job cancels by state transition alone), a stream's
	// at creation.
	cancel context.CancelFunc
}

// streamJob is a job that runs a stream pipeline (rs and recv set).
type streamJob = job

// JobStatus is the wire form of a generation job, snapshotted under the
// registry lock.
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

// status snapshots a job's lifecycle.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		Key:       j.key,
		Query:     j.query,
		State:     j.state,
		Error:     j.err,
		Code:      j.errCode,
		Coalesced: j.coalesced,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// registry tracks one kind of job by id: a daemon keeps one for
// generations and one for streams. Ids are the registry's prefix and a
// sequence number ("n0-job-000001"). Terminal jobs stay queryable until
// the bounded history evicts them. A keyed job — a generation — is its
// key's active job until it finishes, and requests for the key coalesce
// onto it.
type registry struct {
	kind string // "job" or "stream": the noun of its ids and log lines
	// canceled and failed count the jobs that ran and ended so; a job
	// canceled while queued never ran.
	canceled, failed atomic.Int64

	mu      sync.Mutex
	prefix  string
	nextID  int
	byID    map[string]*job
	history []string // insertion-ordered ids, for eviction
	active  map[string]*job
	// lastDone is each key's latest successful job still in byID; see
	// attachLocked.
	lastDone map[string]*job
}

// jobHistory bounds the terminal jobs each registry keeps queryable; the
// oldest are evicted first.
const jobHistory = 1024

// newRegistry returns a registry minting ids "<prefix><kind>-NNNNNN".
func newRegistry(prefix, kind string) *registry {
	return &registry{
		kind:     kind,
		prefix:   prefix + kind + "-",
		byID:     make(map[string]*job),
		active:   make(map[string]*job),
		lastDone: make(map[string]*job),
	}
}

// newJob returns an unregistered job guarded by r's lock.
func (r *registry) newJob(key, query string) *job {
	return &job{mu: &r.mu, done: make(chan struct{}), key: key, query: query, state: JobQueued}
}

// mintID renders the nth id: at least six digits, and as many more as n
// needs, so no two jobs of one registry share an id.
func (r *registry) mintID(n int) string { return fmt.Sprintf("%s%06d", r.prefix, n) }

// attachLocked returns the job a request for key that began its store
// read at began coalesces onto, or nil: the key's active job, or one that
// finished after began. A job's Put precedes its finish, so such a job
// proves the miss stale (the read raced the Put) and generating again
// would cost the key a second generation; a job that finished before
// began proves the miss genuine — a corrupt or deleted entry — and the
// key regenerates.
func (r *registry) attachLocked(key string, began time.Time) *job {
	j := r.active[key]
	if last := r.lastDone[key]; j == nil && last != nil && last.finished.After(began) {
		j = last
	}
	if j != nil {
		j.coalesced++
	}
	return j
}

// addLocked makes j visible under a fresh id, as its key's active job when
// it has a key, and evicts the oldest terminal jobs beyond the history
// limit. An active job is never evicted, so a registry of live jobs grows
// past the limit.
func (r *registry) addLocked(j *job) {
	r.nextID++
	j.id = r.mintID(r.nextID)
	j.created = time.Now()
	r.byID[j.id] = j
	if j.key != "" {
		r.active[j.key] = j
	}
	r.history = append(r.history, j.id)
	for i := 0; len(r.byID) > jobHistory && i < len(r.history); {
		old := r.byID[r.history[i]]
		if !terminal(old.state) {
			i++
			continue
		}
		delete(r.byID, old.id)
		if r.lastDone[old.key] == old {
			delete(r.lastDone, old.key)
		}
		r.history = slices.Delete(r.history, i, i+1)
	}
}

// start transitions a queued job to running and arms its cancel func. It
// returns false when the job was canceled while still queued — the worker
// must skip it (the cancel path already finished it).
func (r *registry) start(j *job, cancel context.CancelFunc) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// cancel stops a job: a queued one finishes canceled at once, a running
// one has its context canceled (its runner's finish then classifies the
// context error as canceled). Terminal jobs are left alone, so DELETE is
// idempotent. It reports whether this call initiated a cancellation.
func (r *registry) cancel(j *job) bool {
	r.mu.Lock()
	switch j.state {
	case JobQueued:
		r.finishLocked(j, context.Canceled)
		r.mu.Unlock()
		return true
	case JobRunning:
		cancel := j.cancel
		r.mu.Unlock()
		cancel()
		return true
	default:
		r.mu.Unlock()
		return false
	}
}

// finish moves a job to the terminal state err classifies it as, releases
// its key for future requests, wakes every waiter, and returns the state.
func (r *registry) finish(j *job, err error) JobState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finishLocked(j, err)
}

// finishLocked is the one classification of a job's end. Context
// cancellation and deadline expiry finish as canceled, not failed: the
// job itself did nothing wrong, and operators alert on failure counts.
func (r *registry) finishLocked(j *job, err error) JobState {
	switch {
	case err == nil:
		j.state = JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCanceled
		j.err = err.Error()
	default:
		j.state = JobFailed
		j.err = err.Error()
		if errors.Is(err, estimate.ErrDegenerateCorrection) {
			j.errCode = codeDegenerateCorrection
		}
	}
	j.finished = time.Now()
	if r.active[j.key] == j {
		delete(r.active, j.key)
		if j.state == JobDone {
			r.lastDone[j.key] = j
		}
	}
	close(j.done)
	return j.state
}

// get returns the job with the given id.
func (r *registry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// live returns the queued and running jobs in id order.
func (r *registry) live() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*job
	for _, id := range r.history {
		if j := r.byID[id]; !terminal(j.state) {
			out = append(out, j)
		}
	}
	return out
}

// counts reports how many tracked jobs are in each state.
func (r *registry) counts() map[JobState]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := make(map[JobState]int, 5)
	for _, j := range r.byID {
		n[j.state]++
	}
	return n
}
