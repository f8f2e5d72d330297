package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// harness's side of the contract in BENCHMARK.json; bench_test.go asserts
// both sides list the same names and units.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run prints: what an administrator or a
// camera sees of the system.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"err_bound_mean", "ratio"},
	{"retained_heap_mb", "MiB"},
}

// perLayer is what a traced run prints, named <module>.<metric>. A layer a
// workload never enters reads 0 on that workload.
var perLayer = []metricDef{
	{"client.latency_p90_ms", "ms"},
	{"client.latency_samples", "count"},

	{"query.parse_us_p50", "us"},

	{"server.key_us_p50", "us"},
	{"server.decode_us_p50", "us"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.post_hit_ms_p50", "ms"},
	{"server.post_new_ms_p50", "ms"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},

	{"plan.build_sweep_ms_p50", "ms"},
	{"plan.build_ladder_ms_p50", "ms"},
	{"plan.build_hypercube_ms_p50", "ms"},
	{"plan.stage_share", "ratio"},
	{"plan.presence_scan_share", "ratio"},
	{"plan.tasks_per_op", "count"},
	{"plan.units_per_op", "count"},
	{"plan.dedup_saved_frames_per_op", "count"},

	{"degrade.effective_video_ms_p50", "ms"},
	{"degrade.view_bytes", "bytes"},

	{"scene.render_native_us_p50", "us"},
	{"scene.generate_ms", "ms"},

	{"raster.downsample_us_p50", "us"},
	{"raster.boxblur_us_p50", "us"},
	{"raster.motionblur_us_p50", "us"},

	{"detect.invocations_per_op", "count"},
	{"detect.frame_patch_us_p50", "us"},
	{"detect.frame_full_us_p50", "us"},
	{"detect.stage_share", "ratio"},
	{"detect.render_hit_ratio", "ratio"},
	{"detect.cache_bytes", "bytes"},

	{"outputs.ensure_ms_p50", "ms"},
	{"outputs.at_us_p50", "us"},
	{"outputs.frame_hit_ratio", "ratio"},
	{"outputs.frames_detected_per_op", "count"},
	{"outputs.bytes", "bytes"},

	{"estimate.avg_us_p50", "us"},
	{"estimate.max_us_p50", "us"},
	{"estimate.repair_us_p50", "us"},
	{"estimate.stage_share", "ratio"},
	{"estimate.window_observe_us_p50", "us"},
	{"estimate.window_advance_us_p50", "us"},

	{"profile.correction_ms_p50", "ms"},
	{"profile.sweep_residual_ms_p50", "ms"},
	{"profile.save_us_p50", "us"},

	{"store.put_us_p50", "us"},
	{"store.get_mem_us_p50", "us"},
	{"store.get_disk_us_p50", "us"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_bytes_per_payload_byte", "ratio"},

	{"fleetd.get_local_us_p50", "us"},
	{"fleetd.get_forwarded_us_p50", "us"},
	{"fleetd.forwarded_ratio", "ratio"},
	{"fleetd.replica_writes_per_put", "ratio"},
	{"fleetd.repairs", "count"},
	{"fleetd.lease_waits", "count"},
	{"fleetd.generations_per_key", "ratio"},

	{"camera.frames_per_s", "1/s"},
	{"codec.decode_frame_us_p50", "us"},
	{"transport.recv_us_p50", "us"},
	{"transport.bytes_per_frame", "bytes"},

	{"stream.receiver_residual_us_per_frame", "us"},
	{"stream.divergence_us_p50", "us"},
	{"stream.windows", "count"},
	{"stream.late_frames", "count"},

	{"parallel.speedup", "ratio"},
	{"parallel.gomaxprocs", "count"},

	{"process.alloc_mb_per_op", "MiB"},
	{"process.gc_pause_ms_total", "ms"},
	{"trace.overhead_share", "ratio"},
}

// percentile is the nearest-rank percentile of xs (q in (0,1]); 0 for an
// empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median averages the two middle values of an even-sized sample, so a
// bimodal op mix does not flip between modes from run to run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
