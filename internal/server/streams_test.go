package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"smokescreen/internal/stream"
)

// smallStreamQuery is the tests' stock stream: a tenth of small at 160x160.
const smallStreamQuery = "SELECT AVG(count(car)) FROM small SAMPLE 0.1 RESOLUTION 160"

// scrapeMetrics fetches /metrics and parses the untyped samples.
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", sc.Text(), err)
		}
		samples[name] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestStreamLifecycleAndMetrics(t *testing.T) {
	// End-to-end through the daemon: POST a stream, watch it ingest the
	// small corpus in tumbling windows, and check the /metrics gauges the
	// satellite requires (frames, window lag, drift events). The tiny
	// drift threshold forces every window to raise a drift event —
	// within-corpus windows diverge well above 0.01 from the corpus-wide
	// histogram (see DESIGN.md on threshold calibration) — so the drift
	// counter provably moves.
	_, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	client := &Client{BaseURL: ts.URL, PollInterval: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := StreamRequest{
		Query:          "select avg(count(car)) from small resolution 160 sample 0.1",
		Window:         100,
		DriftThreshold: 0.01,
	}
	status, err := client.StartStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT AVG(count(car)) FROM small SAMPLE 0.1 RESOLUTION 160"; status.Query != want {
		t.Fatalf("status echoes query %q, want the canonical %q", status.Query, want)
	}
	if status.State != JobRunning {
		t.Fatalf("fresh stream state = %q, want running", status.State)
	}
	if !status.SamplingOnly {
		t.Fatal("a RESOLUTION 160 stream's status does not say its bounds are sampling-only")
	}
	if !strings.HasPrefix(status.ID, "stream-") {
		t.Fatalf("stream id %q", status.ID)
	}

	final, err := client.AwaitStream(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("final state = %q (%s), want done", final.State, final.Error)
	}
	if got, want := final.Stream.Windows, 12; got != want {
		t.Fatalf("windows completed = %d, want %d (1200 frames / window 100)", got, want)
	}
	if final.Stream.Frames == 0 {
		t.Fatal("stream folded no frames")
	}
	if final.Stream.Drifts != 12 {
		t.Fatalf("drift events = %d, want 12 (threshold 0.01 flags every window)", final.Stream.Drifts)
	}
	if final.Stream.LastWindow == nil || final.Stream.LastWindow.Estimate.ErrBound <= 0 {
		t.Fatalf("last window missing its any-time bound: %+v", final.Stream.LastWindow)
	}
	if final.Stream.LastDrift == nil || final.Stream.LastDrift.Divergence <= 0.01 {
		t.Fatalf("last drift event missing: %+v", final.Stream.LastDrift)
	}

	m := scrapeMetrics(t, ts.URL)
	if m["smokescreend_streams_total"] < 1 {
		t.Fatalf("smokescreend_streams_total = %d", m["smokescreend_streams_total"])
	}
	if m["smokescreend_streams_active"] != 0 {
		t.Fatalf("smokescreend_streams_active = %d after stream finished", m["smokescreend_streams_active"])
	}
	if m["smokescreend_stream_frames_total"] < int64(final.Stream.Frames) {
		t.Fatalf("smokescreend_stream_frames_total = %d < %d", m["smokescreend_stream_frames_total"], final.Stream.Frames)
	}
	if m["smokescreend_stream_windows_total"] < 12 {
		t.Fatalf("smokescreend_stream_windows_total = %d", m["smokescreend_stream_windows_total"])
	}
	if m["smokescreend_stream_drift_events_total"] < 12 {
		t.Fatalf("smokescreend_stream_drift_events_total = %d", m["smokescreend_stream_drift_events_total"])
	}
	if _, ok := m["smokescreend_stream_window_lag"]; !ok {
		t.Fatal("smokescreend_stream_window_lag gauge missing")
	}

	// The status endpoint answers for terminal streams too.
	again, err := client.Stream(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != JobDone {
		t.Fatalf("terminal stream re-read state = %q", again.State)
	}

	// Parity: the in-process run of the same request — what `smokescreen
	// stream -window` does — produces the daemon's window sequence.
	rs, err := ResolveStream(req)
	if err != nil {
		t.Fatal(err)
	}
	var local []stream.WindowResult
	rs.Config.OnWindow = func(res stream.WindowResult) { local = append(local, res) }
	recv, err := stream.New(rs.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Run(ctx, recv); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, final.Windows) {
		t.Fatalf("in-process windows differ from the daemon's:\n local %+v\ndaemon %+v", local, final.Windows)
	}
}

func TestStreamCancelTearsDownPromptly(t *testing.T) {
	// DELETE mid-stream: the looping camera would run 100k corpus passes
	// (effectively unbounded — the stream cannot reach "done" naturally
	// within the test window, even fully cache-warm on a loaded machine);
	// cancellation after the first completed window must stop it and
	// report canceled, with the window count frozen (no partial window
	// flushed by teardown).
	_, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	client := &Client{BaseURL: ts.URL, PollInterval: 10 * time.Millisecond}
	// Generous deadline: first-window latency is usually sub-second but
	// swings with GC pressure and machine load.
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	status, err := client.StartStream(ctx, StreamRequest{
		Query:        smallStreamQuery,
		Window:       150,
		Loops:        100000,
		DisableDrift: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := client.Stream(ctx, status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if terminal(st.State) {
			t.Fatalf("stream reached %q before its first window", st.State)
		}
		if st.Stream.Windows >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := client.CancelStream(ctx, status.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.AwaitStream(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCanceled {
		t.Fatalf("state after cancel = %q (%s)", final.State, final.Error)
	}
	if !final.Stream.Done {
		t.Fatal("receiver not torn down after cancel")
	}
	if final.Stream.Windows >= 100000*1200/150 {
		t.Fatalf("cancel did not interrupt the stream: %d windows", final.Stream.Windows)
	}
}

func TestStreamRequestValidation(t *testing.T) {
	// Every rejection is a 400 carrying the message of the layer that owns
	// the rule: the strict decoder, the query parser, core.Resolve, the axis
	// registry or stream.New — the stream resolver adds only "does not
	// stream".
	_, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	const q = `"query":"SELECT AVG(count(car)) FROM small SAMPLE 0.1 RESOLUTION 160"`
	cases := []struct {
		name, body string
		want       string // substring of the error message
		code       string // machine-readable code, if any
	}{
		{"missing query", `{"window":100}`, "requires a query", ""},
		{"negative window", `{` + q + `,"window":-5}`, "window span -5 invalid", ""},
		{"bad stride", `{` + q + `,"window":100,"stride":200}`, "window stride 200", ""},
		{"bad threshold", `{` + q + `,"window":100,"drift_threshold":2}`, "drift threshold", ""},
		{"unparsable query", `{"query":"SELECT AVG(count(car)) small","window":100}`, "query: expected FROM", ""},
		{"unknown dataset", `{"query":"SELECT AVG(count(car)) FROM nope","window":100}`, "nope", ""},
		{"unknown model", `{"query":"SELECT AVG(count(car)) FROM small USING nope","window":100}`, "nope", ""},
		{"model cannot detect class", `{"query":"SELECT AVG(count(car)) FROM small USING mtcnn","window":100}`, "cannot detect car", ""},
		{"extremum", `{"query":"SELECT MAX(count(car)) FROM small","window":100}`, "aggregate MAX does not stream", ""},
		{"variance", `{"query":"SELECT VAR(count(car)) FROM small","window":100}`, "aggregate VAR does not stream", ""},
		{"predicate", `{"query":"SELECT COUNT(*) FROM small WHERE count(car) >= 1","window":100}`, "WHERE predicate does not stream", ""},
		{"bad resolution", `{"query":"SELECT AVG(count(car)) FROM small RESOLUTION 7","window":100}`, "resolution 7 invalid for model yolov4-sim", ""},
		{"bad sample", `{"query":"SELECT AVG(count(car)) FROM small SAMPLE 1.5","window":100}`, "1.5", ""},
		{"bad noise", `{"query":"SELECT AVG(count(car)) FROM small NOISE 0.9","window":100}`, "0.9", ""},
		{"trailing data", `{` + q + `,"window":100} {}`, "trailing data", ""},
		{"typo", `{` + q + `,"window":100,"sample_fraction":0.05}`, "sample_fraction", "unknown_field"},
		// The six fields the query replaced, the two soak knobs and the
		// detection-backend switch: an old client's request must fail loudly,
		// not stream undegraded or be answered by a backend that is gone.
		{"retired wire_pixels", `{` + q + `,"wire_pixels":true}`, "wire_pixels", "unknown_field"},
		{"retired dataset", `{` + q + `,"window":100,"dataset":"small"}`, "dataset", "unknown_field"},
		{"retired model", `{` + q + `,"window":100,"model":"yolov4"}`, "model", "unknown_field"},
		{"retired class", `{` + q + `,"window":100,"class":"car"}`, "class", "unknown_field"},
		{"retired agg", `{` + q + `,"window":100,"agg":"avg"}`, "agg", "unknown_field"},
		{"retired sample", `{` + q + `,"window":100,"sample":0.05}`, "sample", "unknown_field"},
		{"retired resolution", `{` + q + `,"window":100,"resolution":160}`, "resolution", "unknown_field"},
		{"retired drift_noise", `{` + q + `,"window":100,"drift_noise":0.2}`, "drift_noise", "unknown_field"},
		{"retired drift_after_loop", `{` + q + `,"window":100,"drift_after_loop":1}`, "drift_after_loop", "unknown_field"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error, Code string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) || body.Code != tc.code {
			t.Errorf("%s: HTTP %d %+v, want 400 mentioning %q with code %q", tc.name, resp.StatusCode, body, tc.want, tc.code)
		}
	}
	client := &Client{BaseURL: ts.URL}
	if _, err := client.Stream(context.Background(), "stream-999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown stream id: want 404, got %v", err)
	}
	if n := scrapeMetrics(t, ts.URL)["smokescreend_streams_total"]; n != 0 {
		t.Errorf("%d rejected requests started a stream", n)
	}
}

// A request without a window is answered per camera session: the window
// defaults to the corpus length, on every surface that resolves a request.
func TestStreamWindowDefaultsToOneSession(t *testing.T) {
	_, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	body := `{"query":"SELECT AVG(count(car)) FROM small SAMPLE 0.05 RESOLUTION 160","loops":2,"disable_drift":true}`
	resp, err := http.Post(ts.URL+"/v1/streams", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var status StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || status.Window != 1200 || status.Loops != 2 {
		t.Fatalf("POST without window: HTTP %d, window %d, loops %d; want 202, the corpus's 1200, 2", resp.StatusCode, status.Window, status.Loops)
	}
	final, err := (&Client{BaseURL: ts.URL, PollInterval: 20 * time.Millisecond}).AwaitStream(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || len(final.Windows) != 2 || final.Windows[1].Lo != 1200 || final.Windows[1].Hi != 2400 {
		t.Fatalf("state %q (%s), windows %+v; want done with one window per session", final.State, final.Error, final.Windows)
	}
}

func TestStreamResolvesThroughCore(t *testing.T) {
	// The model is core's per-dataset default, not a stream-side constant.
	rs, err := ResolveStream(StreamRequest{Query: "SELECT AVG(count(car)) FROM night-street SAMPLE 0.1", Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Node.Model.Name; got != "mask-rcnn-sim" || rs.Config.Model != rs.Node.Model {
		t.Fatalf("night-street streams with %s (receiver %s), want core's default mask-rcnn-sim", got, rs.Config.Model.Name)
	}
	if rs.Request.Loops != 1 || rs.Request.Seed != 1 {
		t.Fatalf("defaults not filled: %+v", rs.Request)
	}

	// Any non-random axis makes the stream sampling-only; SAMPLE alone, or
	// a RESOLUTION at the model's native input, does not.
	for _, tc := range []struct {
		clauses string
		want    bool
	}{
		{"SAMPLE 0.2", false},
		{"SAMPLE 0.2 RESOLUTION 608", false},
		{"SAMPLE 0.2 RESOLUTION 96", true},
		{"SAMPLE 0.2 NOISE 0.1", true},
		{"SAMPLE 0.2 BLUR 7", true},
		{"SAMPLE 0.2 QUANTIZE 16", true},
		{"SAMPLE 0.2 OCCLUDE 0.2", true},
		{"SAMPLE 0.2 REMOVE face", true},
	} {
		rs, err := ResolveStream(StreamRequest{Query: "SELECT AVG(count(car)) FROM small " + tc.clauses, Window: 100})
		if err != nil {
			t.Fatal(err)
		}
		if rs.SamplingOnly != tc.want {
			t.Errorf("%s: SamplingOnly = %v, want %v", tc.clauses, rs.SamplingOnly, tc.want)
		}
	}
	// A random-only stream's status serialises exactly as it always has.
	if wire, err := json.Marshal(StreamStatus{}); err != nil || strings.Contains(string(wire), "sampling_only") {
		t.Errorf("zero StreamStatus serialises as %s (%v)", wire, err)
	}
}

func TestStreamCameraAppliesPixelAxes(t *testing.T) {
	// A NOISE clause reaches the camera and the replay source, while the
	// drift baseline keeps describing the clean corpus: the noised stream
	// answers differently from its clean twin and diverges further from
	// what was profiled.
	_, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	client := &Client{BaseURL: ts.URL, PollInterval: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	first := func(query string) stream.WindowResult {
		t.Helper()
		status, err := client.StartStream(ctx, StreamRequest{Query: query, Window: 400})
		if err != nil {
			t.Fatal(err)
		}
		final, err := client.AwaitStream(ctx, status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != JobDone || len(final.Windows) != 3 {
			t.Fatalf("%s: state %q, %d windows", query, final.State, len(final.Windows))
		}
		return final.Windows[0]
	}
	clean := first(smallStreamQuery)
	noised := first(smallStreamQuery + " NOISE 0.3")
	if clean.Frames != noised.Frames {
		t.Fatalf("twins sampled %d and %d frames", clean.Frames, noised.Frames)
	}
	if clean.Estimate == noised.Estimate {
		t.Fatalf("NOISE 0.3 left the first window's estimate at %+v", clean.Estimate)
	}
	if noised.Divergence <= clean.Divergence {
		t.Fatalf("noised divergence %.3f not above the clean twin's %.3f", noised.Divergence, clean.Divergence)
	}
}

func TestDrainCancelsActiveStreams(t *testing.T) {
	// SIGTERM semantics: Drain must not hang on an unbounded stream — it
	// cancels it and waits for teardown. 100k corpus passes keep the
	// stream from reaching "done" naturally before Drain lands, even
	// fully cache-warm.
	srv, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	status, err := client.StartStream(ctx, StreamRequest{
		Query:        smallStreamQuery,
		Window:       200,
		Loops:        100000,
		DisableDrift: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	job, ok := srv.streams.get(status.ID)
	if !ok {
		t.Fatal("stream vanished")
	}
	st := job.status()
	if st.State != JobCanceled {
		t.Fatalf("state after drain = %q (%s)", st.State, st.Error)
	}
	// Post-drain stream requests are refused.
	if _, err := client.StartStream(ctx, StreamRequest{Query: smallStreamQuery, Window: 100}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("post-drain start: want 503, got %v", err)
	}
}

// TestTerminalStreamsAreEvicted: streams are bounded by the rule generation
// jobs use. jobHistory + 5 streams are started and canceled at once (a
// stream run to its end costs a frame encode, 40 ms under -race); the five
// oldest ids are forgotten, the newest still answer, and the started
// counter still counts every one.
func TestTerminalStreamsAreEvicted(t *testing.T) {
	srv, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	req := StreamRequest{Query: "SELECT AVG(count(car)) FROM small SAMPLE 0.001"}
	const total = jobHistory + 5
	var jobs [total]*streamJob
	for i := range jobs {
		job, err := srv.startStream(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
		// One at a time: every earlier stream is terminal when the next
		// is registered, so eviction order is start order.
		job.cancel()
		srv.streamWG.Wait()
	}
	for i, job := range jobs {
		resp, err := http.Get(ts.URL + "/v1/streams/" + job.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 5 {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", job.id, resp.StatusCode, want)
		}
	}
	if n := scrapeMetrics(t, ts.URL)["smokescreend_streams_total"]; n != total {
		t.Fatalf("smokescreend_streams_total = %d, want %d", n, total)
	}
}

// TestStreamStopsWithBaseContext: a stream is work of the daemon like a
// generation job, so canceling Config.BaseContext — what a fleet node's
// Kill does — stops it mid-run and it ends canceled.
func TestStreamStopsWithBaseContext(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv, _, _ := newTestServer(t, &fakeGenerator{}, func(cfg *Config) { cfg.BaseContext = base })
	job, err := srv.startStream(StreamRequest{Query: smallStreamQuery, Window: 150, Loops: 100000, DisableDrift: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for job.recv.Status().Windows < 1 {
		if terminal(job.status().State) || time.Now().After(deadline) {
			t.Fatalf("stream reached %q without a first window", job.status().State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancelBase()
	stopped := make(chan struct{})
	go func() {
		srv.streamWG.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("the stream kept running after BaseContext was canceled")
	}
	if st := job.status(); st.State != JobCanceled {
		t.Fatalf("state after BaseContext cancel = %q (%s), want canceled", st.State, st.Error)
	}
}
