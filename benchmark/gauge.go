package main

import (
	"runtime"
	"sync"
	"time"
)

// The speed gauge. The machines this benchmark runs on are a few virtual
// cores of a shared host whose arithmetic speed moves by tens of percent
// from one second to the next with nothing stolen from the guest (a
// register-only loop timed in this directory's history took 165 to 359 ms
// within one minute at 0 % steal): frequency and the other tenants of the
// physical cores. A wall-clock median taken in a slow minute and one taken
// in a fast minute differ by more than most changes to the product would
// move them, and no statistic over one run's samples can tell the two apart.
//
// So the harness times a fixed piece of work of its own — nothing of the
// product's, or a faster product would speed the gauge up and hide itself —
// at every round boundary, between the ops of the workloads whose ops are
// long, and around every set-up, and reports every time at reference speed:
// wall time × gaugeReferenceMS / (mean of the gauge readings that bracket
// it). The report keeps the raw per-round values and the readings.

// gaugeReferenceMS is the reading the reported times are scaled to: about
// what the 2-vCPU VM this was written on reads when its host is quiet. It
// only fixes the scale; a comparison between two commits never sees it.
const gaugeReferenceMS = 30.0

const (
	gaugeW, gaugeH = 160, 120
	gaugePasses    = 1200
)

// gaugeWork is the fixed work one CPU does for a reading, shaped like the
// detector's raster kernels: float32 pixels, a box downsample, a difference
// against a background, a threshold count. The buffers are small (115 KB a
// CPU) so they neither leave the core's own caches nor show in
// retained_heap_mb.
func gaugeWork(img, bg, half []float32) int {
	count := 0
	for pass := 0; pass < gaugePasses; pass++ {
		hw := gaugeW / 2
		for y := 0; y < gaugeH/2; y++ {
			r0, r1 := img[2*y*gaugeW:(2*y+1)*gaugeW], img[(2*y+1)*gaugeW:(2*y+2)*gaugeW]
			out := half[y*hw : (y+1)*hw]
			for x := range out {
				out[x] = (r0[2*x] + r0[2*x+1] + r1[2*x] + r1[2*x+1]) * 0.25
			}
		}
		tau := float32(0.05) + float32(pass)*1e-5
		for i, v := range half {
			d := v - bg[i]
			if d < 0 {
				d = -d
			}
			if d > tau {
				count++
			}
		}
		// Feed the result back so no pass can be hoisted or skipped.
		img[pass] += float32(count&1) * 1e-6
	}
	return count
}

// reading is one timing of the fixed work.
type reading struct {
	start, end time.Time
	ms         float64
}

// gauge takes readings and keeps them in time order. It is used from the
// goroutine that drives the run, never from inside a concurrent phase.
type gauge struct {
	img, bg, half [][]float32 // one set per CPU
	log           []reading
	spent         time.Duration // total time inside read
	sink          int
}

func newGauge() *gauge {
	g := &gauge{}
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		img := make([]float32, gaugeW*gaugeH)
		bg := make([]float32, gaugeW*gaugeH/4)
		for i := range img {
			img[i] = float32((i*2654435761)%1000) / 1000
		}
		for i := range bg {
			bg[i] = float32((i*40503)%1000) / 1000
		}
		g.img, g.bg, g.half = append(g.img, img), append(g.bg, bg), append(g.half, make([]float32, gaugeW*gaugeH/4))
	}
	g.read() // first use: page faults, thread start
	g.log, g.spent = nil, 0
	return g
}

// read times the fixed work on every CPU at once — the workloads keep every
// CPU busy, and a host that slows two busy cores more than one must show.
func (g *gauge) read() {
	var wg sync.WaitGroup
	counts := make([]int, len(g.img))
	t0 := time.Now()
	for c := range g.img {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			counts[c] = gaugeWork(g.img[c], g.bg[c], g.half[c])
		}(c)
	}
	wg.Wait()
	t1 := time.Now()
	for _, n := range counts {
		g.sink += n
	}
	g.log = append(g.log, reading{t0, t1, ms(t1.Sub(t0))})
	g.spent += t1.Sub(t0)
}

// over returns the mean reading around the interval [t0, t1]: from the last
// reading that ended by t0 through the first that started at or after t1.
func (g *gauge) over(t0, t1 time.Time) float64 {
	lo, hi := 0, len(g.log)-1
	for i, r := range g.log {
		if !r.end.After(t0) {
			lo = i
		}
		if !r.start.Before(t1) {
			hi = i
			break
		}
	}
	sum := 0.0
	for _, r := range g.log[lo : hi+1] {
		sum += r.ms
	}
	return sum / float64(hi-lo+1)
}

// atReference converts a wall time measured over [t0, t1] to what it would
// have been with the gauge reading gaugeReferenceMS throughout.
func (g *gauge) atReference(wall float64, t0, t1 time.Time) float64 {
	return wall * gaugeReferenceMS / g.over(t0, t1)
}
