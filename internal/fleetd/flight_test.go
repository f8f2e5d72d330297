package fleetd

import (
	"sync"
	"testing"
	"time"
)

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	const waiters = 16
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	var wg sync.WaitGroup
	results := make([]any, waiters)

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, followed := g.do("k", func() (any, error) {
			close(started)
			<-release
			calls++
			return "payload", nil
		})
		if err != nil || followed {
			t.Errorf("leader: err=%v followed=%v", err, followed)
		}
		results[0] = v
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, followed := g.do("k", func() (any, error) {
				t.Error("follower executed the flight fn")
				return nil, nil
			})
			if err != nil || !followed {
				t.Errorf("follower %d: err=%v followed=%v", i, err, followed)
			}
			results[i] = v
		}(i)
	}
	// Every follower must be parked on the leader's flight before the
	// leader completes, or a late follower would start its own flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		parked := 0
		if f := g.flights["k"]; f != nil {
			parked = f.waiters
		}
		g.mu.Unlock()
		if parked == waiters-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers parked", parked)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("flight fn ran %d times, want 1", calls)
	}
	for i, v := range results {
		if v != "payload" {
			t.Fatalf("result %d = %v, want payload", i, v)
		}
	}
	// After completion the key flies again.
	_, _, followed := g.do("k", func() (any, error) { return "again", nil })
	if followed {
		t.Fatal("fresh flight reported followed")
	}
}
