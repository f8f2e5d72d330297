package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"smokescreen/internal/detect"
	"smokescreen/internal/store"
)

// deleteJob issues DELETE /v1/jobs/{id} and decodes the returned status.
func deleteJob(t *testing.T, url, id string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
	}
	return status, resp.StatusCode
}

func startAsyncJob(t *testing.T, url, query string) JobStatus {
	t.Helper()
	resp := postProfile(t, url, GenRequest{Query: query, Async: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatal(apiError(resp))
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

func awaitState(t *testing.T, client *Client, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		js, err := client.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == want {
			return *js
		}
		if terminal(js.State) {
			t.Fatalf("job %s reached %s (%s), want %s", id, js.State, js.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, js.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCanceledJobFreesPoolSlot is the satellite's acceptance scenario:
// with one worker, canceling the running job must release the slot so the
// queued job runs, and canceling a queued job must finish it immediately
// without ever reaching the generator.
func TestCanceledJobFreesPoolSlot(t *testing.T) {
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts, st := newTestServer(t, gen, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 4
	})
	defer close(gen.block)
	client := &Client{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond}

	a := startAsyncJob(t, ts.URL, "SELECT AVG(count(car)) FROM small")
	<-gen.started // A occupies the only worker
	startAsyncJob(t, ts.URL, "SELECT SUM(count(car)) FROM small") // B, queued
	c := startAsyncJob(t, ts.URL, "SELECT MAX(count(car)) FROM small")

	// Cancel the queued job C: immediate terminal state, generator never
	// ran it, and its key is free for a retry.
	status, code := deleteJob(t, ts.URL, c.ID)
	if code != http.StatusOK || status.State != JobCanceled {
		t.Fatalf("cancel queued job: %d %+v", code, status)
	}
	if _, err := st.Get(c.Key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("canceled queued job left an artifact: %v", err)
	}

	// Cancel the running job A: its context fires, the generator returns,
	// and the freed worker must pick up B.
	if _, code := deleteJob(t, ts.URL, a.ID); code != http.StatusOK {
		t.Fatalf("cancel running job: HTTP %d", code)
	}
	final := awaitState(t, client, a.ID, JobCanceled)
	if final.Error == "" {
		t.Fatal("canceled job carries no error detail")
	}
	if _, err := st.Get(a.Key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("canceled running job left an artifact: %v", err)
	}
	select {
	case <-gen.started:
		// B is running: the canceled job released its pool slot.
	case <-time.After(5 * time.Second):
		t.Fatal("queued job never started after cancellation freed the worker")
	}
	if n := gen.generations.Load(); n != 2 {
		t.Fatalf("generator ran %d times, want 2 (A and B; C never ran)", n)
	}

	// DELETE is idempotent on terminal jobs and 404s on unknown ids.
	status, code = deleteJob(t, ts.URL, a.ID)
	if code != http.StatusOK || status.State != JobCanceled {
		t.Fatalf("re-delete terminal job: %d %+v", code, status)
	}
	if _, code := deleteJob(t, ts.URL, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("delete unknown job: HTTP %d, want 404", code)
	}

	// The canceled key is retryable: a fresh POST creates a new job.
	a2 := startAsyncJob(t, ts.URL, "SELECT AVG(count(car)) FROM small")
	if a2.ID == a.ID {
		t.Fatal("retry after cancel reused the canceled job")
	}
}

// TestJobDeadlineFinishesCanceled pins the deadline path: a job that
// exceeds JobTimeout ends canceled, not failed.
func TestJobDeadlineFinishesCanceled(t *testing.T) {
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts, _ := newTestServer(t, gen, func(cfg *Config) {
		cfg.JobTimeout = 30 * time.Millisecond
	})
	defer close(gen.block)
	client := &Client{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond}

	job := startAsyncJob(t, ts.URL, "SELECT AVG(count(car)) FROM small")
	final := awaitState(t, client, job.ID, JobCanceled)
	if final.Error == "" {
		t.Fatal("deadline-canceled job carries no error detail")
	}
}

// TestCancelStopsDetectorWork drives the real generator and checks the
// ISSUE's acceptance criterion end to end: canceling a daemon job
// mid-generation stops detector work (the invocation counter stops
// advancing), finishes the job canceled — not failed — and leaves no
// partial profile in the store. The second row cancels while core is still
// constructing the correction set: night-street's first growth step alone
// is 195 native Mask R-CNN frames, so a cancel at the first invocation
// lands inside it and construction never starts a second step.
func TestCancelStopsDetectorWork(t *testing.T) {
	if testing.Short() {
		t.Skip("real generation in -short mode")
	}
	for _, row := range []struct {
		name string
		req  GenRequest
		// maxInvocations, when non-zero, bounds the detector work a cancel
		// at the first invocation may leave behind.
		maxInvocations int64
	}{
		// A wide sweep (250 fractions, half the corpus at max) keeps the
		// detect stage busy long enough to cancel mid-flight.
		{"sweep", GenRequest{Query: "SELECT AVG(count(car)) FROM small", Step: 0.002, MaxFraction: 0.5}, 0},
		{"correction set", GenRequest{Query: "SELECT AVG(count(car)) FROM night-street BLUR 5"}, 195},
	} {
		t.Run(row.name, func(t *testing.T) {
			detect.ResetCaches()
			t.Cleanup(detect.ResetCaches)

			gen := &SystemGenerator{Parallelism: 1}
			_, ts, st := newTestServer(t, gen, func(cfg *Config) { cfg.Workers = 1 })
			client := &Client{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond}

			before := detect.Invocations()
			req := row.req
			req.Async = true
			resp := postProfile(t, ts.URL, req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatal(apiError(resp))
			}
			var job JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			// Wait until the detector is demonstrably working, then cancel.
			deadline := time.Now().Add(10 * time.Second)
			for detect.Invocations() == before {
				if time.Now().After(deadline) {
					t.Fatal("generation never started detecting")
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := client.CancelJob(context.Background(), job.ID); err != nil {
				t.Fatal(err)
			}
			final := awaitState(t, client, job.ID, JobCanceled)
			if final.Error == "" {
				t.Fatal("canceled job carries no error detail")
			}

			// The invocation counter must stop advancing once the job is terminal.
			after := detect.Invocations()
			time.Sleep(50 * time.Millisecond)
			if now := detect.Invocations(); now != after {
				t.Fatalf("detector work continued after cancel: %d -> %d", after, now)
			}
			if n := after - before; row.maxInvocations > 0 && n > row.maxInvocations {
				t.Fatalf("cancel landed after %d invocations, past the correction set's first growth step (%d)", n, row.maxInvocations)
			}

			// No partial profile was persisted.
			if _, err := st.Get(job.Key); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("canceled job left a stored profile: %v", err)
			}
		})
	}
}
