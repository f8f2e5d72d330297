package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// retryScript serves a fixed sequence of responses, then 200s forever.
type retryScript struct {
	mu       sync.Mutex
	steps    []retryStep
	attempts int
}

type retryStep struct {
	status     int
	retryAfter string
}

func (s *retryScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	i := s.attempts
	s.attempts++
	s.mu.Unlock()
	if i < len(s.steps) {
		step := s.steps[i]
		if step.retryAfter != "" {
			w.Header().Set("Retry-After", step.retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(step.status)
		w.Write([]byte(`{"error":"scripted"}`))
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"ok":true}`))
}

func (s *retryScript) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts
}

// fakeSleepClient wires a Client to the script with a recording sleep
// and identity jitter, so the backoff schedule is fully deterministic.
func fakeSleepClient(t *testing.T, script *retryScript) (*Client, *[]time.Duration) {
	t.Helper()
	srv := httptest.NewServer(script)
	t.Cleanup(srv.Close)
	var slept []time.Duration
	c := &Client{BaseURL: srv.URL}
	c.jitterFn = func(d time.Duration) time.Duration { return d }
	c.sleepFn = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	return c, &slept
}

// TestClientRetrySchedule pins the exact backoff sequence: exponential
// doubling from the 50ms base, with a 429's Retry-After flooring the
// computed delay. No wall-clock time passes — the sleep fn only records.
func TestClientRetrySchedule(t *testing.T) {
	script := &retryScript{steps: []retryStep{
		{status: http.StatusTooManyRequests, retryAfter: "1"},
		{status: http.StatusTooManyRequests},
		{status: http.StatusServiceUnavailable},
	}}
	c, slept := fakeSleepClient(t, script)

	payload, err := c.GetProfile(context.Background(), "deadbeefdeadbeef")
	if err != nil {
		t.Fatalf("GetProfile after retries: %v", err)
	}
	if string(payload) != `{"ok":true}` {
		t.Fatalf("payload = %s", payload)
	}
	if got := script.count(); got != 4 {
		t.Fatalf("attempts = %d, want 4 (3 retryable failures + success)", got)
	}
	// Retry 0 would back off 50ms, but Retry-After: 1 floors it to 1s.
	// Retries 1 and 2 follow the plain exponential schedule.
	want := []time.Duration{time.Second, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i, d := range want {
		if (*slept)[i] != d {
			t.Fatalf("slept %v, want %v", *slept, want)
		}
	}
}

// TestClientRetryCeiling: the exponential delay saturates at
// retryMaxDelay instead of doubling without bound.
func TestClientRetryCeiling(t *testing.T) {
	script := &retryScript{}
	for range 8 {
		script.steps = append(script.steps, retryStep{status: http.StatusTooManyRequests})
	}
	c, slept := fakeSleepClient(t, script)
	c.MaxRetries = 8

	if _, err := c.GetProfile(context.Background(), "deadbeefdeadbeef"); err != nil {
		t.Fatalf("GetProfile: %v", err)
	}
	ms := time.Millisecond
	want := []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms}
	if !slices.Equal(*slept, want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
}

// TestClientRetryExhaustion: a server that never recovers eventually
// surfaces its last error, after exactly MaxRetries sleeps.
func TestClientRetryExhaustion(t *testing.T) {
	script := &retryScript{steps: []retryStep{
		{status: http.StatusTooManyRequests},
		{status: http.StatusTooManyRequests},
		{status: http.StatusTooManyRequests},
		{status: http.StatusTooManyRequests},
		{status: http.StatusTooManyRequests},
	}}
	c, slept := fakeSleepClient(t, script)

	_, err := c.GetProfile(context.Background(), "deadbeefdeadbeef")
	if err == nil {
		t.Fatal("want error after retry exhaustion")
	}
	if !strings.Contains(err.Error(), "429") {
		t.Fatalf("exhaustion error should carry the last status: %v", err)
	}
	if got := script.count(); got != 4 {
		t.Fatalf("attempts = %d, want 4 (1 + default 3 retries)", got)
	}
	if len(*slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(*slept))
	}
}

// TestClientNoRetryOn502: generation failure is deterministic; replaying
// it would fail identically, so the client must not retry.
func TestClientNoRetryOn502(t *testing.T) {
	script := &retryScript{steps: []retryStep{
		{status: http.StatusBadGateway},
	}}
	c, slept := fakeSleepClient(t, script)

	_, err := c.GetProfile(context.Background(), "deadbeefdeadbeef")
	if err == nil {
		t.Fatal("want error on 502")
	}
	if got := script.count(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry of a deterministic failure)", got)
	}
	if len(*slept) != 0 {
		t.Fatalf("client slept %v before a non-retryable error", *slept)
	}
}

// TestClientRetriesDisabled: MaxRetries < 0 turns the policy off.
func TestClientRetriesDisabled(t *testing.T) {
	script := &retryScript{steps: []retryStep{
		{status: http.StatusTooManyRequests},
	}}
	c, slept := fakeSleepClient(t, script)
	c.MaxRetries = -1

	if _, err := c.GetProfile(context.Background(), "deadbeefdeadbeef"); err == nil {
		t.Fatal("want the raw 429 with retries disabled")
	}
	if got := script.count(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %v with retries disabled", *slept)
	}
}

// TestClientRetryCancelDuringBackoff: a context canceled mid-sleep
// aborts the retry loop and reports both the cancellation and the
// failure it was backing off from.
func TestClientRetryCancelDuringBackoff(t *testing.T) {
	script := &retryScript{steps: []retryStep{
		{status: http.StatusTooManyRequests},
		{status: http.StatusTooManyRequests},
	}}
	srv := httptest.NewServer(script)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{BaseURL: srv.URL}
	c.jitterFn = func(d time.Duration) time.Duration { return d }
	c.sleepFn = func(ctx context.Context, d time.Duration) error {
		cancel() // the caller gives up while the client is backing off
		return ctx.Err()
	}

	_, err := c.GetProfile(ctx, "deadbeefdeadbeef")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "429") {
		t.Fatalf("cancellation error should mention the pending failure: %v", err)
	}
	if got := script.count(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled during first backoff)", got)
	}
}

// TestClientRetryTransportError: connection-level failures follow the
// same backoff schedule as retryable statuses.
func TestClientRetryTransportError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // every dial now fails

	var slept []time.Duration
	c := &Client{BaseURL: url}
	c.jitterFn = func(d time.Duration) time.Duration { return d }
	c.sleepFn = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	_, err := c.GetProfile(context.Background(), "deadbeefdeadbeef")
	if err == nil {
		t.Fatal("want transport error")
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i, d := range want {
		if slept[i] != d {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestEqualJitterBounds(t *testing.T) {
	d := 400 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := equalJitter(d)
		if j < d/2 || j > d {
			t.Fatalf("equalJitter(%v) = %v, want in [%v, %v]", d, j, d/2, d)
		}
	}
	if equalJitter(0) != 0 {
		t.Fatal("equalJitter(0) != 0")
	}
}

func TestRetryAfterHint(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if got := retryAfterHint(mk("3")); got != 3*time.Second {
		t.Fatalf("delta-seconds: %v", got)
	}
	if got := retryAfterHint(mk("")); got != 0 {
		t.Fatalf("absent header: %v", got)
	}
	if got := retryAfterHint(mk("soon")); got != 0 {
		t.Fatalf("garbage header: %v", got)
	}
	if got := retryAfterHint(mk("-2")); got != 0 {
		t.Fatalf("negative delta: %v", got)
	}
	// HTTP-date form: a deadline a few seconds out yields a positive
	// wait; a past date yields zero.
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if got := retryAfterHint(mk(future)); got <= 0 || got > 5*time.Second {
		t.Fatalf("future date: %v", got)
	}
	past := time.Now().Add(-5 * time.Second).UTC().Format(http.TimeFormat)
	if got := retryAfterHint(mk(past)); got != 0 {
		t.Fatalf("past date: %v", got)
	}
}
