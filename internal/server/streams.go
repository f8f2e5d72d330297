package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"smokescreen/internal/camera"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
	"smokescreen/internal/stream"
)

// Streaming ingest as daemon jobs: POST /v1/streams starts a simulated
// camera (internal/camera over an in-process pipe) feeding a
// stream.Receiver; GET /v1/streams/{id} reports the live windowed
// profile and drift state; DELETE cancels. Stream jobs live outside the
// generation worker pool — they are long-running by design and must not
// starve profile generations — but they respect drain: shutdown cancels
// every active stream, and Drain waits for their teardown (which never
// persists a partial window).

// StreamRequest is the wire form of POST /v1/streams.
type StreamRequest struct {
	// Dataset names the corpus the camera streams (dataset registry).
	Dataset string `json:"dataset"`
	// Model is the detector (default yolov4-sim).
	Model string `json:"model,omitempty"`
	// Class is the counted object class (default car).
	Class string `json:"class,omitempty"`
	// Agg is the windowed aggregate: avg (default), sum or count.
	Agg string `json:"agg,omitempty"`
	// Window is W, the span in stream positions of each windowed answer.
	// Required.
	Window int `json:"window"`
	// Stride is the distance between window starts; 0 means tumbling.
	Stride int `json:"stride,omitempty"`
	// Sample is the camera's frame-sampling fraction f (default 0.2).
	Sample float64 `json:"sample,omitempty"`
	// Resolution is the transmitted resolution p; 0 means model native.
	Resolution int `json:"resolution,omitempty"`
	// Loops is how many camera sessions replay the corpus back to back —
	// the unbounded-video stand-in (default 1).
	Loops int `json:"loops,omitempty"`
	// Seed roots the camera's sampling randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// DriftThreshold is the total-variation trigger (default
	// stream.DefaultDriftThreshold); DisableDrift skips baseline
	// construction entirely.
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	DisableDrift   bool    `json:"disable_drift,omitempty"`
	// DriftNoise injects a distribution shift for soak testing: sessions
	// from DriftAfterLoop onward stream a noised view of the corpus (the
	// replay source shifts with the camera, so detection stays
	// consistent) while the baseline keeps describing the clean corpus.
	DriftNoise     float64 `json:"drift_noise,omitempty"`
	DriftAfterLoop int     `json:"drift_after_loop,omitempty"`

	// WirePixels selects central detection on the transmitted rasters
	// instead of the replay backend.
	WirePixels bool `json:"wire_pixels,omitempty"`
}

func (r *StreamRequest) normalize() {
	if r.Model == "" {
		r.Model = "yolov4-sim"
	}
	if r.Class == "" {
		r.Class = "car"
	}
	if r.Agg == "" {
		r.Agg = "avg"
	}
	if r.Sample == 0 {
		r.Sample = 0.2
	}
	if r.Loops <= 0 {
		r.Loops = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.DriftAfterLoop <= 0 {
		r.DriftAfterLoop = 1
	}
}

// StreamStatus is the wire form of one stream job.
type StreamStatus struct {
	ID       string        `json:"id"`
	State    JobState      `json:"state"`
	Error    string        `json:"error,omitempty"`
	Dataset  string        `json:"dataset"`
	Class    string        `json:"class"`
	Window   int           `json:"window"`
	Stride   int           `json:"stride"`
	Loops    int           `json:"loops"`
	Created  time.Time     `json:"created"`
	Finished time.Time     `json:"finished,omitempty"`
	Stream   stream.Status `json:"stream"`
}

// streamJob is one live ingest pipeline: a camera and a receiver joined by
// an in-process pipe (stream.Loopback).
type streamJob struct {
	id      string
	req     StreamRequest
	recv    *stream.Receiver
	cancel  context.CancelFunc
	created time.Time

	mu       sync.Mutex
	state    JobState
	err      string
	finished time.Time
}

// streamSet tracks stream jobs by id. Terminal jobs stay queryable for
// the daemon's lifetime: streams are few and operator-started, unlike
// generation jobs, so there is no history eviction.
type streamSet struct {
	mu     sync.Mutex
	nextID int
	byID   map[string]*streamJob
}

func newStreamSet() *streamSet {
	return &streamSet{byID: make(map[string]*streamJob)}
}

func (ss *streamSet) create(req StreamRequest, recv *stream.Receiver, cancel context.CancelFunc, now time.Time) *streamJob {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.nextID++
	job := &streamJob{
		id:      fmt.Sprintf("stream-%06d", ss.nextID),
		req:     req,
		recv:    recv,
		cancel:  cancel,
		created: now,
		state:   JobRunning,
	}
	ss.byID[job.id] = job
	return job
}

func (ss *streamSet) get(id string) (*streamJob, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	job, ok := ss.byID[id]
	return job, ok
}

// all returns the tracked jobs in id order.
func (ss *streamSet) all() []*streamJob {
	ss.mu.Lock()
	jobs := make([]*streamJob, 0, len(ss.byID))
	for _, job := range ss.byID {
		jobs = append(jobs, job)
	}
	ss.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })
	return jobs
}

// cancelAll fires every job's cancel; terminal jobs ignore it.
func (ss *streamSet) cancelAll() {
	for _, job := range ss.all() {
		job.cancel()
	}
}

// activeAndMaxLag reports how many streams are still running and the
// largest window lag among them, for the metrics scrape.
func (ss *streamSet) activeAndMaxLag() (active int, maxLag int) {
	for _, job := range ss.all() {
		job.mu.Lock()
		running := job.state == JobRunning
		job.mu.Unlock()
		if !running {
			continue
		}
		active++
		if lag := job.recv.Status().WindowLag; lag > maxLag {
			maxLag = lag
		}
	}
	return active, maxLag
}

// finish records the job's terminal state.
func (job *streamJob) finish(err error, now time.Time) {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = now
	switch {
	case err == nil:
		job.state = JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = JobCanceled
		job.err = err.Error()
	default:
		job.state = JobFailed
		job.err = err.Error()
	}
}

func (job *streamJob) status() StreamStatus {
	job.mu.Lock()
	state, errText, finished := job.state, job.err, job.finished
	job.mu.Unlock()
	return StreamStatus{
		ID:       job.id,
		State:    state,
		Error:    errText,
		Dataset:  job.req.Dataset,
		Class:    job.req.Class,
		Window:   job.req.Window,
		Stride:   job.req.Stride,
		Loops:    job.req.Loops,
		Created:  job.created,
		Finished: finished,
		Stream:   job.recv.Status(),
	}
}

// resolveStream turns a request into the receiver config and the camera
// nodes. It is cheap — no detector work; the corpus baseline is
// deferred to the stream goroutine, where it runs under the job
// context.
func resolveStream(req *StreamRequest) (*stream.Config, []*camera.Node, error) {
	req.normalize()
	if req.Window <= 0 {
		return nil, nil, fmt.Errorf("server: stream request requires a positive window (got %d)", req.Window)
	}
	v, err := dataset.Load(req.Dataset)
	if err != nil {
		return nil, nil, err
	}
	model, err := detect.ModelByName(req.Model)
	if err != nil {
		return nil, nil, err
	}
	class, err := scene.ParseClass(req.Class)
	if err != nil {
		return nil, nil, err
	}
	agg, err := estimate.ParseAgg(req.Agg)
	if err != nil {
		return nil, nil, err
	}
	if agg.IsExtremum() || agg == estimate.VAR {
		return nil, nil, fmt.Errorf("server: aggregate %v does not stream (windowed answers need the streaming estimator)", agg)
	}
	if req.Resolution != 0 && !model.ValidResolution(req.Resolution) {
		return nil, nil, fmt.Errorf("server: resolution %d invalid for %s", req.Resolution, model.Name)
	}
	if req.Sample <= 0 || req.Sample > 1 {
		return nil, nil, fmt.Errorf("server: sample fraction %v outside (0, 1]", req.Sample)
	}
	if req.DriftNoise < 0 || req.DriftNoise > 0.5 {
		return nil, nil, fmt.Errorf("server: drift noise %v outside [0, 0.5]", req.DriftNoise)
	}

	// Sources and nodes are compact, not one entry per loop: the receiver
	// replays Sources[min(session, len-1)], and the camera goroutine
	// clamps the same way — so Loops can be arbitrarily large (the
	// unbounded-video stand-in) without per-loop allocation. With drift
	// noise the first DriftAfterLoop sessions stream the clean corpus and
	// every later one the noised view; otherwise a single entry serves
	// all sessions.
	newNode := func(src *scene.Video) *camera.Node {
		return &camera.Node{
			Video:   src,
			Model:   model,
			Setting: degrade.Setting{SampleFraction: req.Sample, Resolution: req.Resolution},
			Energy:  camera.DefaultEnergyModel(),
		}
	}
	sources := []*scene.Video{v}
	nodes := []*camera.Node{newNode(v)}
	if req.DriftNoise > 0 && req.DriftAfterLoop < req.Loops {
		noised := v.WithNoise(float32(req.DriftNoise))
		for len(sources) < req.DriftAfterLoop {
			sources = append(sources, v)
			nodes = append(nodes, nodes[0])
		}
		sources = append(sources, noised)
		nodes = append(nodes, newNode(noised))
	}
	cfg := &stream.Config{
		Model:          model,
		Class:          class,
		Agg:            agg,
		WindowSpan:     req.Window,
		WindowStride:   req.Stride,
		Sources:        sources,
		WirePixels:     req.WirePixels,
		DriftThreshold: req.DriftThreshold,
	}
	return cfg, nodes, nil
}

// startStream validates the request, builds the pipeline, and launches
// the job's goroutine. The returned job is already running.
func (s *Server) startStream(req StreamRequest) (*streamJob, error) {
	if s.draining() {
		return nil, errDraining
	}
	cfg, nodes, err := resolveStream(&req)
	if err != nil {
		return nil, err
	}
	recv, err := stream.New(*cfg)
	if err != nil {
		return nil, err
	}

	// The job context is minted fresh, not taken from the HTTP request:
	// the stream outlives the POST that started it. DELETE and drain
	// cancel it.
	ctx, cancel := context.WithCancel(context.Background())
	job := s.streams.create(req, recv, cancel, time.Now())

	s.streamWG.Add(1)
	go func() { // owns the job's terminal state
		defer s.streamWG.Done()
		defer cancel()
		runErr := s.runStream(ctx, cfg, recv, req, nodes)
		job.finish(runErr, time.Now())
		switch {
		case runErr == nil:
			s.cfg.Logf("stream %s: done (%d windows)", job.id, recv.Status().Windows)
		case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
			s.metrics.streamsCanceled.Add(1)
			s.cfg.Logf("stream %s: canceled: %v", job.id, runErr)
		default:
			s.metrics.streamFailures.Add(1)
			s.cfg.Logf("stream %s: failed: %v", job.id, runErr)
		}
	}()
	s.metrics.streamsStarted.Add(1)
	s.cfg.Logf("stream %s: started (%s, window %d, %d sessions)", job.id, req.Dataset, req.Window, req.Loops)
	return job, nil
}

// runStream builds the drift baseline (unless disabled) and runs the
// camera-to-receiver loopback. The baseline is detector-heavy — it runs
// here, under the job context, so DELETE cancels a stream still warming up.
func (s *Server) runStream(ctx context.Context, cfg *stream.Config, recv *stream.Receiver, req StreamRequest, nodes []*camera.Node) error {
	if !req.DisableDrift {
		p := req.Resolution
		if p == 0 {
			p = cfg.Model.NativeInput
		}
		base, err := stream.CorpusBaseline(ctx, cfg.Sources[0], cfg.Model, cfg.Class, p)
		if err != nil {
			return err
		}
		recv.SetBaseline(base)
	}
	_, err := stream.Loopback(ctx, recv, nodes, req.Loops, req.Seed)
	return err
}
