package main

import (
	"context"
	"net/http"
	"time"

	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/fleetd"
	"smokescreen/internal/outputs"
	"smokescreen/internal/raster"
)

// Standalone probes: public functions of single layers, timed on the inputs
// the workload's own ops used. They run after the traced rounds, so they
// never sit inside an op's spans.

// framesPerTarget is how many of an op's first planned frames each kernel
// probe touches.
const framesPerTarget = 3

// kernelProbes times the pixel kernels and both detector paths on the first
// frames each staged op detected, at that op's view and resolution.
func kernelProbes(b *bench, targets []probeTarget) {
	var render, down, box, motion, patch, full []float64
	for _, t := range targets {
		frames := t.frames
		if len(frames) > framesPerTarget {
			frames = frames[:framesPerTarget]
		}
		for _, f := range frames {
			t0 := time.Now()
			native := t.video.RenderNative(f)
			render = append(render, us(time.Since(t0)))

			small := raster.New(t.resolution, t.resolution)
			t0 = time.Now()
			raster.DownsampleInto(small, native)
			down = append(down, us(time.Since(t0)))

			blurred := raster.New(small.W, small.H)
			t0 = time.Now()
			raster.BoxBlurInto(blurred, small, 2)
			box = append(box, us(time.Since(t0)))

			streaked := raster.New(native.W, native.H)
			t0 = time.Now()
			raster.MotionBlurHInto(streaked, native, 2, 2, 0)
			motion = append(motion, us(time.Since(t0)))

			t0 = time.Now()
			t.model.DetectFrame(t.video, f, t.resolution)
			patch = append(patch, us(time.Since(t0)))

			t0 = time.Now()
			t.model.DetectFrameFull(t.video, f, t.resolution)
			full = append(full, us(time.Since(t0)))
		}
	}
	b.layer("scene.render_native_us_p50", median(render))
	b.layer("raster.downsample_us_p50", median(down))
	b.layer("raster.boxblur_us_p50", median(box))
	b.layer("raster.motionblur_us_p50", median(motion))
	b.layer("detect.frame_patch_us_p50", median(patch))
	b.layer("detect.frame_full_us_p50", median(full))
}

// estimatorProbes times the bound estimators on a real column: a 10 % sample
// of a corpus's per-frame counts, with the correction set the daemon would
// build for it.
func estimatorProbes(b *bench, column []float64) {
	n := len(column)
	sample := make([]float64, 0, n/10)
	for i := 0; i < n; i += 10 {
		sample = append(sample, column[i])
	}
	params := estimate.DefaultParams()
	var avg, max, repair []float64
	for rep := 0; rep < 200; rep++ {
		t0 := time.Now()
		est, err := estimate.Smokescreen(estimate.AVG, sample, n, params)
		avg = append(avg, us(time.Since(t0)))
		if err != nil {
			return
		}
		t0 = time.Now()
		if _, err := estimate.Smokescreen(estimate.MAX, sample, n, params); err != nil {
			return
		}
		max = append(max, us(time.Since(t0)))

		corr, err := estimate.NewCorrection(estimate.AVG, sample, n, params)
		if err != nil {
			return
		}
		t0 = time.Now()
		if _, err := corr.Repaired(estimate.AVG, est, params, false); err != nil {
			return
		}
		repair = append(repair, us(time.Since(t0)))
	}
	b.layer("estimate.avg_us_p50", median(avg))
	b.layer("estimate.max_us_p50", median(max))
	b.layer("estimate.repair_us_p50", median(repair))
}

// reportCaches reads the byte-accounted cache snapshots at the end of a
// traced run.
func reportCaches(b *bench) {
	ds := detect.Stats()
	b.layer("detect.cache_bytes", float64(ds.TotalBytes()))
	b.layer("degrade.view_bytes", float64(ds.ViewBytes))
	if lookups := ds.RenderHits + ds.RenderMisses; lookups > 0 {
		b.layer("detect.render_hit_ratio", float64(ds.RenderHits)/float64(lookups))
	}
	os := outputs.ReadStats()
	b.layer("outputs.bytes", float64(os.FullBytes+os.SparseBytes))
}

// scrape reads one daemon's /metrics.
func scrape(url string) (map[string]int64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return fleetd.ParseMetrics(resp.Body)
}

// scrapeSum sums every daemon's /metrics. Process-wide gauges (detector,
// outputs, plan) repeat on every node of an in-process fleet, so only the
// per-node counters are meaningful in the sum.
func scrapeSum(urls []string) map[string]int64 {
	sum := map[string]int64{}
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			continue
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum
}

// reportDaemonCounters reads the server- and store-level counters the
// daemons kept over the whole traced run.
func reportDaemonCounters(b *bench, urls []string) {
	m := scrapeSum(urls)
	b.layer("server.coalesced", float64(m["smokescreend_requests_coalesced_total"]))
	b.layer("server.rejected", float64(m["smokescreend_rejected_queue_full_total"]+m["smokescreend_rejected_draining_total"]))
	mem, disk := m["smokescreend_store_cache_hits_total"], m["smokescreend_store_disk_hits_total"]
	if mem+disk > 0 {
		b.layer("store.mem_hit_ratio", float64(mem)/float64(mem+disk))
	}
}

// truthColumn is the full native-resolution column of a corpus: the ground
// truth the bounds are checked against, and the estimator probes' input.
func truthColumn(corpus, class string) ([]float64, error) {
	rs, err := resolveRequest(genRequest("AVG", class, corpus, ""))
	if err != nil {
		return nil, err
	}
	return outputs.Full(context.Background(), rs.spec.Video, rs.spec.Model, rs.spec.Class, rs.spec.Model.NativeInput)
}
