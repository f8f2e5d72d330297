package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Client talks to a smokescreend daemon. The zero HTTPClient uses
// http.DefaultClient; BaseURL is e.g. "http://127.0.0.1:8040".
//
// Every request retries transient failures — transport errors and the
// daemon's backpressure statuses (429 queue-full, 503 draining, 504) —
// with jittered exponential backoff, honoring a 429's Retry-After as the
// floor of the next delay. All endpoints are safe to retry: GETs and
// DELETEs are idempotent by design, and POST /v1/profiles is
// content-addressed (a replayed request coalesces onto the in-flight job
// or hits the store). A 502 — generation genuinely failed — is NOT
// retried: replaying it would re-run a deterministic failure.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	// PollInterval spaces job-status polls after a 202 (default 100ms).
	PollInterval time.Duration
	// MaxRetries caps retry attempts after the first try (default 3;
	// negative disables retries).
	MaxRetries int

	// sleepFn and jitterFn are test seams: the backoff-schedule unit
	// test replaces them to run on a fake clock. Nil means real sleep
	// and equal-jitter.
	sleepFn  func(ctx context.Context, d time.Duration) error
	jitterFn func(d time.Duration) time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

// The pre-jitter delay before retry k is retryBaseDelay<<k, capped at
// retryMaxDelay.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// backoff returns the jittered delay before retry attempt (0-based).
func (c *Client) backoff(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	d = min(d, retryMaxDelay)
	if c.jitterFn != nil {
		return c.jitterFn(d)
	}
	return equalJitter(d)
}

// equalJitter keeps half the deterministic delay and randomizes the
// rest: enough spread to de-synchronize a herd of clients retrying the
// same 429, while never collapsing the delay to ~0 the way full jitter
// can.
func equalJitter(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// sleep waits d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.sleepFn != nil {
		return c.sleepFn(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableStatus: the daemon's "try again later" statuses. 429 is the
// bounded queue pushing back, 503 is drain, 504 an intermediary timeout.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// retryAfterHint parses a Retry-After header (delta-seconds or HTTP
// date) into a wait duration; 0 when absent or unparseable.
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// doReq issues one API request with the retry policy. body is retained
// so retries replay identical bytes.
func (c *Client) doReq(ctx context.Context, method, url string, body []byte, contentType string) (*http.Response, error) {
	retries := c.maxRetries()
	for attempt := 0; ; attempt++ {
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, reader)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.http().Do(req)
		var delay time.Duration
		var lastErr error
		switch {
		case err == nil && !retryableStatus(resp.StatusCode):
			return resp, nil
		case err == nil:
			hint := retryAfterHint(resp)
			lastErr = apiError(resp) // drains and summarizes the body
			resp.Body.Close()
			if attempt >= retries {
				return nil, lastErr
			}
			delay = c.backoff(attempt)
			if hint > delay {
				// The server knows its own backlog better than our
				// schedule does; its hint floors the wait.
				delay = hint
			}
		default:
			lastErr = err
			if attempt >= retries {
				return nil, lastErr
			}
			delay = c.backoff(attempt)
		}
		if err := c.sleep(ctx, delay); err != nil {
			return nil, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
		}
	}
}

// apiError decodes a JSON error body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &payload) == nil && payload.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", payload.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// GenerateRaw requests a profile and returns the raw stored JSON plus its
// canonical key. It follows the sync-then-poll protocol: a 200 returns
// immediately; a 202 (async request, or server-side wait timeout) polls
// the job until it finishes, then fetches the artifact.
func (c *Client) GenerateRaw(ctx context.Context, req GenRequest) ([]byte, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.doReq(ctx, http.MethodPost, c.BaseURL+"/v1/profiles", body, "application/json")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", err
		}
		return payload, resp.Header.Get("X-Smokescreen-Key"), nil
	case http.StatusAccepted:
		var status JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			return nil, "", fmt.Errorf("server: decoding job status: %w", err)
		}
		if err := c.awaitJob(ctx, status.ID); err != nil {
			return nil, "", err
		}
		payload, err := c.GetProfile(ctx, status.Key)
		return payload, status.Key, err
	default:
		return nil, "", apiError(resp)
	}
}

// GetProfile fetches a stored profile verbatim by key.
func (c *Client) GetProfile(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.doReq(ctx, http.MethodGet, c.BaseURL+"/v1/profiles/"+key, nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	return call[JobStatus](ctx, c, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
}

// StartStream asks the daemon to begin a streaming ingest job (POST
// /v1/streams) and returns its initial status.
func (c *Client) StartStream(ctx context.Context, req StreamRequest) (*StreamStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return call[StreamStatus](ctx, c, http.MethodPost, "/v1/streams", body, http.StatusAccepted)
}

// Stream fetches one stream job's status, including the live windowed
// profile and drift state.
func (c *Client) Stream(ctx context.Context, id string) (*StreamStatus, error) {
	return call[StreamStatus](ctx, c, http.MethodGet, "/v1/streams/"+id, nil, http.StatusOK)
}

// CancelStream asks the daemon to stop a stream (DELETE
// /v1/streams/{id}). The returned status reflects the moment of the
// request; poll Stream to observe the canceled state.
func (c *Client) CancelStream(ctx context.Context, id string) (*StreamStatus, error) {
	return call[StreamStatus](ctx, c, http.MethodDelete, "/v1/streams/"+id, nil, http.StatusOK)
}

// call issues one API request, JSON body optional, and decodes the JSON
// status a want response carries; any other status is the daemon's error.
func call[T any](ctx context.Context, c *Client, method, path string, body []byte, want int) (*T, error) {
	contentType := ""
	if body != nil {
		contentType = "application/json"
	}
	resp, err := c.doReq(ctx, method, c.BaseURL+path, body, contentType)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return nil, apiError(resp)
	}
	var status T
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return nil, err
	}
	return &status, nil
}

// AwaitStream polls a stream until it reaches a terminal state,
// returning the final status. A canceled stream is not an error from
// the poller's perspective — cancellation is the normal way to end an
// unbounded stream — so only failed streams return an error.
func (c *Client) AwaitStream(ctx context.Context, id string) (*StreamStatus, error) {
	status, err := await(ctx, c, id, c.Stream, func(s *StreamStatus) JobState { return s.State })
	if err == nil && status.State == JobFailed {
		err = fmt.Errorf("server: stream %s failed: %s", id, status.Error)
	}
	return status, err
}

// awaitJob polls a job until it reaches a terminal state.
func (c *Client) awaitJob(ctx context.Context, id string) error {
	status, err := await(ctx, c, id, c.Job, func(s *JobStatus) JobState { return s.State })
	switch {
	case err != nil:
		return err
	case status.State == JobFailed:
		return fmt.Errorf("server: job %s failed: %s", id, status.Error)
	case status.State == JobCanceled:
		return fmt.Errorf("server: job %s canceled: %s", id, status.Error)
	}
	return nil
}

// await fetches id's status with get every PollInterval until state reads
// terminal, and returns that status.
func await[T any](ctx context.Context, c *Client, id string, get func(context.Context, string) (*T, error), state func(*T) JobState) (*T, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		status, err := get(ctx, id)
		if err != nil {
			return nil, err
		}
		if terminal(state(status)) {
			return status, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}
