package fleetd

import "time"

// Clock is the package's only source of time. The synthetic generator's
// hold and the load driver's latencies and polls flow through an injected
// Clock — the smokevet ctxflow analyzer rejects direct time.Now/time.After
// use in this package to keep it that way.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that delivers one value after d elapses.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock. Its two methods are the sanctioned
// wall-clock reads in fleetd; everything else goes through the interface.
type realClock struct{}

func (realClock) Now() time.Time {
	return time.Now() //smokevet:ignore ctxflow: realClock is the injected Clock's production implementation — the sole sanctioned wall-clock read in fleetd
}

func (realClock) After(d time.Duration) <-chan time.Time {
	return time.After(d) //smokevet:ignore ctxflow: realClock is the injected Clock's production implementation — the sole sanctioned timer source in fleetd
}

// SystemClock is the wall clock; Config.Clock defaults to it.
var SystemClock Clock = realClock{}
