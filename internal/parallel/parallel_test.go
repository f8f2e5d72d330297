package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		forEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	forEach(0, 4, func(int) { ran = true })
	forEach(-5, 4, func(int) { ran = true })
	if ran {
		t.Fatal("task ran for non-positive n")
	}
}

func TestForSequentialFallbackIsOrdered(t *testing.T) {
	// workers <= 1 must preserve index order (it is a plain loop); parts of
	// the codebase rely on this for the sequential reference path.
	var order []int
	forEach(10, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential fallback out of order: %v", order)
		}
	}
}

func TestForBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	forEach(100, workers, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, limit %d", p, workers)
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	forEach(50, 4, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestMapResultsAndDeterministicError(t *testing.T) {
	out, err := MapCtx(context.Background(), 8, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}

	// Two failing indices: the lowest one must win under any schedule.
	for trial := 0; trial < 20; trial++ {
		_, err := MapCtx(context.Background(), 32, 8, func(i int) (int, error) {
			if i == 5 || i == 29 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 5 failed" {
			t.Fatalf("trial %d: got error %v, want task 5's", trial, err)
		}
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	sentinel := errors.New("nope")
	out, err := MapCtx(context.Background(), 4, 2, func(i int) (string, error) {
		if i == 2 {
			return "", sentinel
		}
		return "ok", nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not preserved: %v", err)
	}
	if out[0] != "ok" || out[3] != "ok" {
		t.Fatalf("successful results dropped: %v", out)
	}
}
