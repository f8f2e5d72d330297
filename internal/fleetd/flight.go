package fleetd

import "sync"

// flightGroup coalesces duplicate concurrent work by key — the routing
// layer's singleflight. The server already coalesces generations per
// node (its job registry) and the outputs store per frame; this closes the
// last gap: N concurrent forwards (or repairs) of one key from one node
// cost one upstream request, and every waiter shares the result.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	done    chan struct{}
	val     any
	err     error
	waiters int // followers parked on done; guarded by the group's mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// do runs fn once per key among concurrent callers. The leader executes
// fn; followers block until it finishes and receive the same result.
// followed reports whether this call rode on another's flight.
func (g *flightGroup) do(key string, fn func() (any, error)) (val any, err error, followed bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		<-f.done
		return f.val, f.err, true
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, f.err, false
}
