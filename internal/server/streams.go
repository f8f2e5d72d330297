package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"smokescreen/internal/camera"
	"smokescreen/internal/core"
	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/query"
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

// StreamRequest is the wire form of POST /v1/streams: a query, run
// continuously and answered per window. The query says what every other
// surface lets it say — corpus, model (USING), class, aggregate,
// confidence, and the camera's interventions (SAMPLE, RESOLUTION, REMOVE,
// NOISE, BLUR, QUANTIZE, OCCLUDE); the remaining fields shape the windows.
type StreamRequest struct {
	// Query is the analytical query in Smokescreen's query language.
	// Required. AVG and SUM stream; MAX, MIN, VAR and WHERE do not.
	Query string `json:"query"`
	// Window is W, the span in stream positions of each windowed answer.
	// Zero means one camera session: the corpus length.
	Window int `json:"window,omitempty"`
	// Stride is the distance between window starts; 0 means tumbling.
	Stride int `json:"stride,omitempty"`
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
}

// ResolvedStream is a stream request bound to its pipeline: one camera and
// one receiver config. The daemon's POST /v1/streams and cmd/smokescreen's
// stream command both run what ResolveStream returns, so a request means
// the same camera, the same windows and the same bounds on every surface.
type ResolvedStream struct {
	// Request is the request with its defaults filled in; Query is the
	// canonical rendering of its query.
	Request StreamRequest
	Query   string
	// SamplingOnly reports that the query sets a non-random axis, which a
	// stream does not repair: its bounds are the any-time sampling bound
	// over the frames delivered, with no correction set behind them, and
	// the true error may exceed them. Every surface that prints a bound of
	// such a stream says so.
	SamplingOnly bool
	// Node is the camera: the clean corpus, the model and the query's
	// setting, which the camera applies through the axis registry.
	Node *camera.Node
	// Config is the receiver's. Its replay source is the corpus as the
	// setting sees it; OnWindow and OnDrift are the caller's to set before
	// stream.New.
	Config stream.Config
}

// ResolveStream turns a request into its pipeline through the resolution
// every other surface uses: query.Parse, core.System.Resolve (corpus,
// per-dataset default model, class, model/class and resolution validity)
// and the axis registry's Setting.Validate; stream.New validates the
// window fields. It is cheap — no detector work; the corpus baseline is
// deferred to Run.
func ResolveStream(req StreamRequest) (*ResolvedStream, error) {
	if req.Query == "" {
		return nil, errors.New("server: stream request requires a query")
	}
	if req.Loops <= 0 {
		req.Loops = 1
	}
	if req.Seed == 0 {
		req.Seed = core.DefaultSeed
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	if q.Predicate != nil {
		return nil, errors.New("server: a WHERE predicate does not stream (windows aggregate raw per-frame counts)")
	}
	if q.Agg.IsExtremum() || q.Agg == estimate.VAR {
		return nil, fmt.Errorf("server: aggregate %v does not stream (windowed answers need the streaming estimator)", q.Agg)
	}
	spec, err := core.New().Resolve(q)
	if err != nil {
		return nil, err
	}
	if err := q.Setting.Validate(spec.Model); err != nil {
		return nil, err
	}
	if req.Window == 0 {
		req.Window = spec.Video.NumFrames()
	}
	return &ResolvedStream{
		Request:      req,
		Query:        q.String(),
		SamplingOnly: !q.Setting.IsRandomOnly(spec.Model),
		Node:         &camera.Node{Video: spec.Video, Model: spec.Model, Setting: q.Setting, Energy: camera.DefaultEnergyModel()},
		Config: stream.Config{
			Model:          spec.Model,
			Class:          spec.Class,
			Agg:            spec.Agg,
			Params:         spec.Params,
			WindowSpan:     req.Window,
			WindowStride:   req.Stride,
			Sources:        []*scene.Video{degrade.EffectiveVideo(spec.Video, q.Setting)},
			DriftThreshold: req.DriftThreshold,
		},
	}, nil
}

// Run builds the drift baseline (unless disabled) and drives the camera's
// sessions into recv over an in-process pipe, returning what the camera
// sent. The baseline describes the clean corpus at the transmitted
// resolution — a stream degraded by a pixel axis is measured against what
// was profiled, not against itself — and is detector-heavy, so it runs
// here, under ctx: cancelling stops a stream still warming up. Its column
// is the one a random-only receiver then reads every frame's count from.
func (rs *ResolvedStream) Run(ctx context.Context, recv *stream.Receiver) (camera.Report, error) {
	if !rs.Request.DisableDrift {
		n := rs.Node
		base, err := stream.CorpusBaseline(ctx, n.Video, n.Model, rs.Config.Class, n.Setting.ResolveResolution(n.Model))
		if err != nil {
			return camera.Report{}, err
		}
		recv.SetBaseline(base)
	}
	return stream.Loopback(ctx, recv, []*camera.Node{rs.Node}, rs.Request.Loops, rs.Request.Seed)
}

// streamWindowHistory bounds the completed windows a stream's status
// carries, so a watcher polling slower than windows complete still sees
// each one.
const streamWindowHistory = 64

// StreamStatus is the wire form of one stream job.
type StreamStatus struct {
	ID       string        `json:"id"`
	State    JobState      `json:"state"`
	Error    string        `json:"error,omitempty"`
	Query    string        `json:"query"`
	Window   int           `json:"window"`
	Stride   int           `json:"stride"`
	Loops    int           `json:"loops"`
	Created  time.Time     `json:"created"`
	Finished time.Time     `json:"finished,omitempty"`
	Stream   stream.Status `json:"stream"`
	// Windows are the most recent completed windows, oldest first.
	Windows []stream.WindowResult `json:"windows,omitempty"`
	// SamplingOnly is ResolvedStream.SamplingOnly: the bounds above carry
	// no repair for the query's non-random axes.
	SamplingOnly bool `json:"sampling_only,omitempty"`
}

// recordWindow is a stream's OnWindow: it keeps the most recent completed
// windows for the status endpoint.
func (j *job) recordWindow(res stream.WindowResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.windows) == streamWindowHistory {
		j.windows = slices.Delete(j.windows, 0, 1)
	}
	j.windows = append(j.windows, res)
}

// streamStatus snapshots a stream job.
func (j *job) streamStatus() StreamStatus {
	j.mu.Lock()
	st := StreamStatus{
		ID:           j.id,
		State:        j.state,
		Error:        j.err,
		Query:        j.query,
		SamplingOnly: j.rs.SamplingOnly,
		Window:       j.rs.Request.Window,
		Stride:       j.rs.Request.Stride,
		Loops:        j.rs.Request.Loops,
		Created:      j.created,
		Finished:     j.finished,
		Windows:      slices.Clone(j.windows),
	}
	j.mu.Unlock()
	st.Stream = j.recv.Status()
	return st
}

// wireStatus is the job's GET and DELETE body: a stream's StreamStatus, a
// generation's JobStatus.
func (j *job) wireStatus() any {
	if j.rs != nil {
		return j.streamStatus()
	}
	return j.status()
}

// startStream resolves the request, builds the pipeline, registers the
// job as running and launches its goroutine.
func (s *Server) startStream(req StreamRequest) (*streamJob, error) {
	rs, err := ResolveStream(req)
	if err != nil {
		return nil, err
	}
	j := s.streams.newJob("", rs.Query)
	j.rs = rs
	rs.Config.OnWindow = j.recordWindow
	if j.recv, err = stream.New(rs.Config); err != nil {
		return nil, err
	}
	// The job context hangs off BaseContext, not the HTTP request: the
	// stream outlives the POST that started it. DELETE, drain and a
	// canceled BaseContext (a fleet node's Kill) stop it.
	ctx, cancel := context.WithCancel(s.cfg.BaseContext)
	j.cancel = cancel
	j.state = JobRunning
	// s.mu orders the registration against stop, so drain cancels every
	// stream it admitted.
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		cancel()
		return nil, errDraining
	}
	s.streams.mu.Lock()
	s.streams.addLocked(j)
	s.streams.mu.Unlock()
	s.streamWG.Add(1)
	s.mu.Unlock()

	go func() { // owns the job's terminal state
		defer s.streamWG.Done()
		defer cancel()
		_, runErr := rs.Run(ctx, j.recv)
		s.end(s.streams, j, runErr, fmt.Sprintf("%d windows", j.recv.Status().Windows))
	}()
	s.metrics.streamsStarted.Add(1)
	s.cfg.Logf("stream %s: started (%s, window %d, %d sessions)", j.id, rs.Query, rs.Request.Window, rs.Request.Loops)
	return j, nil
}
