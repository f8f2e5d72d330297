// Package server implements the Smokescreen profile service: an HTTP
// JSON API over the content-addressed profile store (internal/store) with
// an asynchronous, coalescing generation job queue on top of the parallel
// profile engine. It turns the one-shot CLI profiler into a long-running
// system: many consumers read one store, and N concurrent requests for
// the same (corpus, query, intervention family, params, seed) trigger
// exactly one generation.
//
// API:
//
//	GET  /v1/profiles/{key}  serve a stored profile verbatim
//	POST /v1/profiles        request generation (sync by default;
//	                         "async": true returns 202 + job id)
//	GET  /v1/jobs/{id}       job lifecycle status
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	POST /v1/streams         start a streaming ingest job (streams.go)
//	GET, DELETE /v1/streams/{id}
//	GET  /healthz            liveness (reports draining)
//	GET  /metrics            Prometheus-style counters
//
// Flow control: the job queue is bounded; when it is full POST returns
// 429 so callers back off instead of piling goroutines onto the daemon.
// During drain (SIGTERM) new generation requests get 503 while in-flight
// jobs run to completion — the store's atomic writes make the shutdown
// window corruption-free.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"smokescreen/internal/store"
)

// Backend is the artifact storage the server reads and writes. An
// in-process server hands it a *store.Store directly; a fleet node (every
// smokescreend) hands it a replicated store (internal/fleetd) whose Get
// repairs corrupt or missing local copies from peer replicas and whose Put
// fans the write out to them. Implementations must preserve the store
// package's error contract: ErrNotFound for never-stored keys and
// *CorruptError for unusable on-disk entries.
type Backend interface {
	Get(key string) ([]byte, error)
	Put(key string, payload []byte) error
	Stats() store.Stats
}

// Config assembles a Server.
type Config struct {
	// Store holds generated artifacts. Required. A plain *store.Store
	// serves an in-process server; fleet nodes wrap it (see Backend).
	Store Backend
	// Generator resolves and runs generations. Required.
	Generator Generator
	// Workers is the number of concurrent generation jobs (default 2).
	// Each generation additionally fans out internally per the
	// generator's parallelism.
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 16); beyond
	// it POST returns 429.
	QueueDepth int
	// RequestTimeout caps how long a synchronous POST waits for its job
	// before degrading to a 202 with the job id (default 120s).
	RequestTimeout time.Duration
	// JobTimeout caps one generation (default 10m).
	JobTimeout time.Duration
	// JobIDPrefix namespaces generated job and stream ids
	// ("n0-job-000001", "n0-stream-000001"). Fleet nodes set a per-node
	// prefix so a handle returned by one node is never mistaken for
	// another node's job or stream, and any node can route it home.
	JobIDPrefix string
	// BaseContext is the parent of every generation job's and stream's
	// context; nil means context.Background(). Canceling it aborts all
	// running work at once — a fleet node's Kill cancels it to simulate
	// dying mid-generation without draining.
	BaseContext context.Context
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server is the profile service. Create with New, mount Handler, and call
// Close (or Drain) on shutdown.
type Server struct {
	cfg     Config
	store   Backend
	gen     Generator
	jobs    *registry
	queue   chan *job
	metrics metrics

	// streams are long-running ingest jobs outside the worker pool;
	// streamWG tracks their goroutines so Drain can wait for teardown.
	streams  *registry
	streamWG sync.WaitGroup

	// lifecycle: mu serializes admission — queue sends and stream
	// registrations — against stop; workers is closed when the last
	// worker exits.
	mu      sync.Mutex
	stopped bool
	stopCh  chan struct{}
	workers chan struct{}
}

// New validates the config and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil || cfg.Generator == nil {
		return nil, fmt.Errorf("server: Config requires Store and Generator")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 120 * time.Second
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.BaseContext == nil {
		//smokevet:ignore ctxflow: the daemon's job root defaults to the process root; fleet harnesses inject a cancellable BaseContext to simulate node death
		cfg.BaseContext = context.Background()
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		gen:     cfg.Generator,
		jobs:    newRegistry(cfg.JobIDPrefix, "job"),
		queue:   make(chan *job, cfg.QueueDepth),
		streams: newRegistry(cfg.JobIDPrefix, "stream"),
		stopCh:  make(chan struct{}),
		workers: make(chan struct{}),
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(s.workers)
	}()
	return s, nil
}

// draining reports whether shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.stopCh:
		return true
	default:
		return false
	}
}

// stop closes intake exactly once. The mutex serializes it against
// admission, so the queue is never sent to after close and every admitted
// stream is canceled.
func (s *Server) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		s.stopped = true
		close(s.stopCh)
		close(s.queue)
		// Streams are cancelled, not waited for, here: Drain owns the
		// wait. Cancellation tears down in-flight detection and the
		// receivers drop their partial windows.
		for _, j := range s.streams.live() {
			j.cancel()
		}
	}
}

var (
	errQueueFull = errors.New("server: generation queue full")
	errDraining  = errors.New("server: draining")
)

// enqueue returns the job req waits on: the key's active job, or a new
// one the queue has accepted. It returns errDraining after Drain/Close and
// errQueueFull when the bounded queue has no room. A new job becomes
// visible only once queued — s.mu orders the send against stop's
// close(queue) and the registry lock keeps coalescing out until then — so
// no request attaches to a job the queue refused.
func (s *Server) enqueue(key, canonical string, req GenRequest, began time.Time) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, errDraining
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	if j := s.jobs.attachLocked(key, began); j != nil {
		s.metrics.coalesced.Add(1)
		return j, nil
	}
	j := s.jobs.newJob(key, canonical)
	j.req = req
	select {
	case s.queue <- j:
	default:
		return nil, errQueueFull
	}
	s.jobs.addLocked(j)
	return j, nil
}

// run executes one generation job. The job's context is cancellable two
// ways — the job deadline and DELETE /v1/jobs/{id} — and the generator
// threads it through the plan/execute pipeline, so cancellation stops
// detector work promptly and nothing partial reaches the store.
func (s *Server) run(j *job) {
	ctx, cancel := context.WithTimeout(s.cfg.BaseContext, s.cfg.JobTimeout)
	defer cancel()
	if !s.jobs.start(j, cancel) {
		// Canceled while queued; the cancel path already finished it.
		return
	}
	s.metrics.generations.Add(1)
	s.cfg.Logf("job %s: generating key %s (%s)", j.id, j.key, j.query)
	payload, err := s.gen.Generate(ctx, j.req)
	if err == nil {
		err = s.store.Put(j.key, payload)
	}
	s.end(s.jobs, j, err, fmt.Sprintf("%d bytes", len(payload)))
}

// end finishes a job that ran through its registry r, then books the
// outcome in r's counters and one log line; result describes a done job's
// output.
func (s *Server) end(r *registry, j *job, err error, result string) {
	switch r.finish(j, err) {
	case JobDone:
		s.cfg.Logf("%s %s: done (%s)", r.kind, j.id, result)
	case JobCanceled:
		r.canceled.Add(1)
		s.cfg.Logf("%s %s: canceled: %v", r.kind, j.id, err)
	default:
		r.failed.Add(1)
		s.cfg.Logf("%s %s: failed: %v", r.kind, j.id, err)
	}
}

// Drain stops intake, cancels active streams, and waits for queued and
// running jobs plus stream teardown to finish, or for ctx to expire. It
// is safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.stop()
	streamsDone := make(chan struct{})
	go func() {
		s.streamWG.Wait()
		close(streamsDone)
	}()
	select {
	case <-s.workers:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	select {
	case <-streamsDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// Close drains with a short grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// Handler returns the service's HTTP handler: Routes behind Counted.
func (s *Server) Handler() http.Handler { return s.Counted(s.Routes()) }

// Counted wraps h so every request it receives counts as one HTTP request
// of this daemon. A fleet node wraps its own mux, which serves Routes for
// what it does not handle itself: each request is counted once, at the
// door, however it is served.
func (s *Server) Counted(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.httpRequests.Add(1)
		h.ServeHTTP(w, r)
	})
}

// Routes returns the service's routes without the request counter.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/profiles/{key}", s.handleGetProfile)
	mux.HandleFunc("POST /v1/profiles", s.handlePostProfile)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet(s.jobs))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete(s.jobs))
	mux.HandleFunc("POST /v1/streams", s.handlePostStream)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleGet(s.streams))
	mux.HandleFunc("DELETE /v1/streams/{id}", s.handleDelete(s.streams))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// WriteJSON writes a JSON response body. It and the three writers below
// are exported so fleet nodes (internal/fleetd) answer through the same
// code: a client sees one response contract whether it hits a node or the
// daemon.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes a JSON error body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteErrorCode writes a JSON error body carrying a stable machine-
// readable code alongside the human-readable message, for errors clients
// are expected to branch on (e.g. version skew).
func WriteErrorCode(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// WriteProfile serves stored profile JSON verbatim — every caller of the
// same key receives byte-identical bytes.
func WriteProfile(w http.ResponseWriter, key string, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Smokescreen-Key", key)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// writeProfile is WriteProfile counted in this daemon's /metrics.
func (s *Server) writeProfile(w http.ResponseWriter, key string, payload []byte) {
	WriteProfile(w, key, payload)
	s.metrics.profilesServed.Add(1)
}

func (s *Server) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, err := s.store.Get(key)
	switch {
	case err == nil:
		s.writeProfile(w, key, payload)
	case errors.Is(err, store.ErrNotFound):
		WriteError(w, http.StatusNotFound, err)
	default:
		var corrupt *store.CorruptError
		if errors.As(err, &corrupt) {
			// The artifact is unusable until re-generated; tell the caller
			// to re-POST rather than retry the GET.
			WriteError(w, http.StatusGone, err)
			return
		}
		WriteError(w, http.StatusInternalServerError, err)
	}
}

// writeDecodeError answers a request body decodeStrict refused: 413 when
// it was over the bound, else 400, with the machine-readable unknown_field
// code when that is why.
func writeDecodeError(w http.ResponseWriter, err error) {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		WriteError(w, http.StatusRequestEntityTooLarge, err)
	case errors.As(err, new(*UnknownFieldError)):
		WriteErrorCode(w, http.StatusBadRequest, "unknown_field", err)
	default:
		WriteError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handlePostProfile(w http.ResponseWriter, r *http.Request) {
	if req, key, canonical, ok := ReadGenRequest(w, r, s.gen); ok {
		s.ServeKeyed(w, r, req, key, canonical)
	}
}

// ReadGenRequest is the first half of POST /v1/profiles: it decodes the
// body strictly, requires a query, normalizes the request and keys it with
// gen. On failure it has answered w and ok is false. A fleet node starts
// here too, so a version-skewed field is refused before a forward could
// re-marshal the request without it.
func ReadGenRequest(w http.ResponseWriter, r *http.Request, gen Generator) (req GenRequest, key, canonical string, ok bool) {
	if req, ok = readRequest[GenRequest](w, r); !ok {
		return req, "", "", false
	}
	if req.Query == "" {
		WriteError(w, http.StatusBadRequest, errors.New("server: request requires a query"))
		return req, "", "", false
	}
	req.Normalize()
	key, canonical, err := gen.Key(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return req, "", "", false
	}
	return req, key, canonical, true
}

// ServeKeyed is the second half of POST /v1/profiles, for a request its
// caller decoded and keyed with ReadGenRequest: the store fast path, the
// coalescing enqueue, and the sync wait. A fleet node calls it for a key it
// generates, so a request is decoded once per hop.
func (s *Server) ServeKeyed(w http.ResponseWriter, r *http.Request, req GenRequest, key, canonical string) {
	// Fast path: the artifact already exists.
	began := time.Now()
	if payload, err := s.store.Get(key); err == nil {
		s.writeProfile(w, key, payload)
		return
	}
	// Miss — including a corrupt on-disk entry, which regeneration heals,
	// and a read that raced a finishing job's Put, which enqueue attaches
	// to that job.

	j, err := s.enqueue(key, canonical, req, began)
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.rejectedQueueFull.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errDraining):
		s.metrics.rejectedDraining.Add(1)
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err)
		return
	}

	if req.Async {
		WriteJSON(w, http.StatusAccepted, j.status())
		return
	}

	// Synchronous wait, bounded by the request timeout and the client's
	// own context; on timeout the job keeps running and the caller can
	// poll GET /v1/jobs/{id}.
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
		WriteJSON(w, http.StatusAccepted, j.status())
		return
	case <-r.Context().Done():
		// Client gave up; the job continues for future requesters.
		return
	}
	status := j.status()
	switch status.State {
	case JobFailed:
		err := fmt.Errorf("server: generation failed: %s", status.Error)
		if status.Code == codeDegenerateCorrection {
			WriteErrorCode(w, http.StatusUnprocessableEntity, status.Code, err)
			return
		}
		WriteError(w, http.StatusBadGateway, err)
		return
	case JobCanceled:
		WriteError(w, http.StatusBadGateway, fmt.Errorf("server: generation canceled: %s", status.Error))
		return
	}
	payload, err := s.store.Get(key)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeProfile(w, key, payload)
}

// handleGet answers GET /v1/jobs/{id} or /v1/streams/{id} from reg.
func (s *Server) handleGet(reg *registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if j, ok := lookup(w, r, reg); ok {
			WriteJSON(w, http.StatusOK, j.wireStatus())
		}
	}
}

// handleDelete cancels a job or stream. A queued job finishes canceled at
// once; a running one has its context canceled and reaches the canceled
// state when its pipeline unwinds (the response reports the state at
// return time, so a still-unwinding job may read "running" — poll GET).
// Deleting a terminal job is a no-op, and it stays queryable until
// history evicts it — DELETE is safe to retry.
func (s *Server) handleDelete(reg *registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := lookup(w, r, reg)
		if !ok {
			return
		}
		if reg.cancel(j) {
			s.metrics.cancellations.Add(1)
			s.cfg.Logf("%s %s: cancel requested", reg.kind, j.id)
		}
		WriteJSON(w, http.StatusOK, j.wireStatus())
	}
}

// lookup returns the job the request's path names in reg, or answers 404.
func lookup(w http.ResponseWriter, r *http.Request, reg *registry) (*job, bool) {
	j, ok := reg.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("server: unknown %s", reg.kind))
	}
	return j, ok
}

// handlePostStream starts a streaming ingest job and returns 202 with
// its status; streams are inherently asynchronous (they run until the
// camera's sessions end or a DELETE stops them).
func (s *Server) handlePostStream(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest[StreamRequest](w, r)
	if !ok {
		return
	}
	j, err := s.startStream(req)
	switch {
	case errors.Is(err, errDraining):
		s.metrics.rejectedDraining.Add(1)
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, j.streamStatus())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, len(s.queue), cap(s.queue), s.jobs, s.streams, s.store)
}
