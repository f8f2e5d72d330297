package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/plan"
	"smokescreen/internal/stream"
	"smokescreen/internal/transport"
)

// metrics holds the daemon's cumulative counters. Everything is atomic so
// the hot paths never contend on a metrics lock; gauges (queue depth, job
// states) are sampled at render time instead of tracked.
type metrics struct {
	httpRequests      atomic.Int64
	profilesServed    atomic.Int64 // 200 responses carrying profile JSON
	generations       atomic.Int64 // Generate calls started
	cancellations     atomic.Int64 // DELETEs that canceled a job or stream
	coalesced         atomic.Int64 // requests attached to an in-flight job
	rejectedQueueFull atomic.Int64 // 429s
	rejectedDraining  atomic.Int64 // 503s
	streamsStarted    atomic.Int64 // POST /v1/streams accepted
}

// render writes the metrics in the Prometheus text exposition format
// (untyped samples; no client library in the dependency budget). The
// job registries, the store, detector, and transport layers contribute
// their own counters so one scrape covers the whole daemon.
func (m *metrics) render(w io.Writer, queueDepth, queueCap int, jobs, streams *registry, st Backend) {
	states := jobs.counts()
	stats := st.Stats()
	tr := transport.Totals()
	dc := detect.Stats()
	oc := outputs.ReadStats()
	sg := plan.Stages()
	sc := stream.Totals()
	live := streams.live()
	streamLag := 0
	for _, j := range live {
		streamLag = max(streamLag, j.recv.Status().WindowLag)
	}

	samples := map[string]int64{
		"smokescreend_http_requests_total":               m.httpRequests.Load(),
		"smokescreend_profiles_served_total":             m.profilesServed.Load(),
		"smokescreend_generations_total":                 m.generations.Load(),
		"smokescreend_generation_failures_total":         jobs.failed.Load(),
		"smokescreend_generations_canceled_total":        jobs.canceled.Load(),
		"smokescreend_job_cancellations_total":           m.cancellations.Load(),
		"smokescreend_requests_coalesced_total":          m.coalesced.Load(),
		"smokescreend_rejected_queue_full_total":         m.rejectedQueueFull.Load(),
		"smokescreend_rejected_draining_total":           m.rejectedDraining.Load(),
		"smokescreend_queue_depth":                       int64(queueDepth),
		"smokescreend_queue_capacity":                    int64(queueCap),
		"smokescreend_jobs_queued":                       int64(states[JobQueued]),
		"smokescreend_jobs_running":                      int64(states[JobRunning]),
		"smokescreend_jobs_done":                         int64(states[JobDone]),
		"smokescreend_jobs_failed":                       int64(states[JobFailed]),
		"smokescreend_jobs_canceled":                     int64(states[JobCanceled]),
		"smokescreend_outputs_tables":                    int64(oc.Tables),
		"smokescreend_outputs_frames_detected_total":     oc.FramesDetected,
		"smokescreend_outputs_frame_hits_total":          oc.FrameHits,
		"smokescreend_presence_probes_total":             oc.PresenceProbes,
		"smokescreend_presence_early_exits_total":        oc.PresenceEarlyExits,
		"smokescreend_stage_plan_ns_total":               sg.PlanNS,
		"smokescreend_stage_detect_ns_total":             sg.DetectNS,
		"smokescreend_stage_estimate_ns_total":           sg.EstimateNS,
		"smokescreend_stage_tasks_planned_total":         sg.Tasks,
		"smokescreend_stage_units_planned_total":         sg.Units,
		"smokescreend_stage_dedup_saved_frames_total":    sg.DedupSavedFrames,
		"smokescreend_store_cache_hits_total":            stats.Hits,
		"smokescreend_store_disk_hits_total":             stats.DiskHits,
		"smokescreend_store_misses_total":                stats.Misses,
		"smokescreend_store_puts_total":                  stats.Puts,
		"smokescreend_store_cache_bytes":                 stats.CacheBytes,
		"smokescreend_store_cache_entries":               int64(stats.CacheCount),
		"smokescreend_detector_invocations_total":        detect.Invocations(),
		"smokescreend_detect_cache_bytes":                dc.TotalBytes(),
		"smokescreend_detect_full_series":                int64(dc.FullSeries),
		"smokescreend_detect_full_bytes":                 dc.FullBytes,
		"smokescreend_detect_sparse_series":              int64(dc.SparseSeries),
		"smokescreend_detect_sparse_bytes":               dc.SparseBytes,
		"smokescreend_streams_total":                     m.streamsStarted.Load(),
		"smokescreend_streams_canceled_total":            streams.canceled.Load(),
		"smokescreend_stream_failures_total":             streams.failed.Load(),
		"smokescreend_streams_active":                    int64(len(live)),
		"smokescreend_stream_frames_total":               sc.Frames,
		"smokescreend_stream_late_frames_total":          sc.Late,
		"smokescreend_stream_windows_total":              sc.Windows,
		"smokescreend_stream_drift_events_total":         sc.Drifts,
		"smokescreend_stream_window_lag":                 int64(streamLag),
		"smokescreend_transport_bytes_sent_total":        tr.BytesSent,
		"smokescreend_transport_bytes_received_total":    tr.BytesReceived,
		"smokescreend_transport_messages_sent_total":     tr.MessagesSent,
		"smokescreend_transport_messages_received_total": tr.MessagesReceived,
	}
	WriteSamples(w, samples)
}

// WriteSamples writes samples in name order, one "name value" line each.
// A fleet node appends its smokescreend_fleet_* block through it, so every
// block of a scrape has the one format.
func WriteSamples(w io.Writer, samples map[string]int64) {
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, samples[name])
	}
}
