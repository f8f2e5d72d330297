// Package fixture exercises the ctxflow analyzer: no fresh context roots
// inside ctx-holding functions, no context.TODO anywhere, ctx-taking
// exported functions must forward their context to *Ctx callees, no
// exported F beside an exported FCtx, and — because fixture/ctxflow is
// registered as clock-injected — no direct wall-clock or timer calls
// outside a suppressed production Clock.
package fixture

import (
	"context"
	"time"
)

// DoCtx is the fixture's context-aware callee.
func DoCtx(ctx context.Context, n int) int { return n }

// dropCtx is *Ctx-suffixed but context-free; rule 2 keys on the name.
func dropCtx(n int) int { return n }

// Root is a compatibility root: it holds no context, so minting Background
// to forward it directly into a context-aware call is the sanctioned shape.
func Root(n int) int { return DoCtx(context.Background(), n) }

// Detached mints a fresh root while holding a context.
func Detached(ctx context.Context, n int) int {
	return DoCtx(context.Background(), n) // want `severs cancellation`
}

// Todo is never acceptable: the pipeline is fully threaded.
func Todo(n int) int {
	return DoCtx(context.TODO(), n) // want `context\.TODO\(\) in library code`
}

// Stray mints a Background that feeds nothing context-aware.
func Stray() context.Context {
	return context.Background() // want `compatibility roots may only mint a context to forward it`
}

// ClosureHolds shows that a closure nested in a ctx-holding function
// inherits the context: minting a root inside it still severs.
func ClosureHolds(ctx context.Context) int {
	f := func() int {
		return DoCtx(context.Background(), 1) // want `severs cancellation`
	}
	return f()
}

// Forwards passes its context along: the *Ctx call is satisfied.
func Forwards(ctx context.Context, n int) int { return DoCtx(ctx, n) }

// Drops holds a context but calls the *Ctx callee without one.
func Drops(ctx context.Context, n int) int {
	return dropCtx(n) // want `Drops holds a context but calls dropCtx without passing one`
}

// unexportedDrop is unexported: rule 2 is scoped to exported APIs, where
// the suffix convention is load-bearing for callers.
func unexportedDrop(ctx context.Context, n int) int { return dropCtx(n) }

// Suppressed shows a reasoned escape hatch for an intentional detach.
func Suppressed(ctx context.Context, n int) int {
	return DoCtx(context.Background(), n) //smokevet:ignore ctxflow: fixture exercises suppression of an intentional detach
}

// WallRead bypasses the injected clock with a direct wall-clock read.
func WallRead() time.Time {
	return time.Now() // want `time\.Now in a clock-injected package`
}

// Elapsed: time.Since is a wall-clock read too.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since in a clock-injected package`
}

// RealTimer arms a real timer where the injected Clock's After belongs.
func RealTimer() <-chan time.Time {
	return time.After(time.Second) // want `time\.After in a clock-injected package`
}

// Naps sleeps on the real clock — the exact flake source the rule exists
// to keep out of fleet tests.
func Naps() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in a clock-injected package`
}

// Unflagged shows the rule keys on calls, not the time package itself:
// durations, formatting, and arithmetic are fine.
func Unflagged(t time.Time) string {
	return t.Add(3 * time.Second).Format(time.RFC3339)
}

// ProductionClock is the fixture's sanctioned wall-clock read, mirroring
// fleetd's realClock: the one place a clock-injected package touches time.
func ProductionClock() time.Time {
	return time.Now() //smokevet:ignore ctxflow: fixture's production Clock implementation — the sanctioned wall-clock read
}

// FooCtx is a context-aware entry point.
func FooCtx(ctx context.Context, n int) int { return n }

// Foo is its context-free twin: the compat wrapper the rule retires.
func Foo(n int) int { return FooCtx(context.Background(), n) } // want `Foo is declared beside FooCtx`

// Counter has an Inc/IncCtx method pair on one receiver.
type Counter struct{ n int }

// IncCtx is the context-aware increment.
func (c *Counter) IncCtx(ctx context.Context) { c.n++ }

// Inc is the twin method.
func (c *Counter) Inc() { c.IncCtx(context.Background()) } // want `Inc is declared beside IncCtx`

// Other shares a method name with Counter's twin but has no IncCtx of its
// own: siblings are per receiver.
type Other struct{ n int }

// Inc has no twin on Other.
func (o *Other) Inc() { o.n++ }

// BarCtx stands alone: a *Ctx name with no context-free sibling is the
// shape every pipeline entry point has.
func BarCtx(ctx context.Context, n int) int { return n }

// Baz already takes a context, so BazCtx beside it is not a detach route.
func Baz(ctx context.Context, n int) int { return BazCtx(ctx, n) }

// BazCtx is Baz's sibling.
func BazCtx(ctx context.Context, n int) int { return n }

// quxCtx and qux are unexported: the rule is about the API callers see.
func quxCtx(ctx context.Context, n int) int { return n }

func qux(n int) int { return quxCtx(context.Background(), n) }

// Kept is a twin kept for a frozen caller, with the reason on record.
//
//smokevet:ignore ctxflow: fixture exercises suppression of a sanctioned twin
func Kept(n int) int { return KeptCtx(context.Background(), n) }

// KeptCtx is Kept's context-aware sibling.
func KeptCtx(ctx context.Context, n int) int { return n }
