package service

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"tpuising/internal/hist"
)

// promMetric is one exposed scalar metric: its Prometheus name, type and help
// text, plus how to read it from a Stats snapshot. The exposition is
// hand-rolled (no client library dependency): unlabelled counters and gauges
// come from this catalogue, and the stage-latency histograms and the labelled
// build-info gauge are rendered by renderMetrics directly — still nothing but
// fmt over the text format.
type promMetric struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	value func(Stats) int64
}

// promMetrics is the /metrics catalogue, all prefixed isingd_. Counters carry
// the conventional _total suffix; gauges are instantaneous. isingload scrapes
// these (internal/load) and the CI load-smoke gate thresholds them, so a
// rename here is a breaking change to that gate.
var promMetrics = []promMetric{
	{"isingd_jobs_submitted_total", "counter", "Jobs accepted by Submit (including cache hits).", func(s Stats) int64 { return s.JobsSubmitted }},
	{"isingd_jobs_completed_total", "counter", "Jobs that finished with a result (excluding cache hits).", func(s Stats) int64 { return s.JobsCompleted }},
	{"isingd_jobs_failed_total", "counter", "Jobs that stopped with an error.", func(s Stats) int64 { return s.JobsFailed }},
	{"isingd_jobs_canceled_total", "counter", "Jobs canceled by clients or lost to shutdown.", func(s Stats) int64 { return s.JobsCanceled }},
	{"isingd_jobs_cached_total", "counter", "Cache hits: submissions served without sweeping.", func(s Stats) int64 { return s.JobsCached }},
	{"isingd_jobs_resumed_total", "counter", "Jobs re-queued from checkpoints at startup.", func(s Stats) int64 { return s.JobsResumed }},
	{"isingd_jobs_evicted_total", "counter", "Terminal jobs dropped by the history retention (JobHistory/JobTTL).", func(s Stats) int64 { return s.JobsEvicted }},
	{"isingd_sweeps_run_total", "counter", "Whole-lattice updates executed by workers.", func(s Stats) int64 { return s.SweepsRun }},
	{"isingd_checkpoints_written_total", "counter", "Checkpoint files written (snapshots and intent records).", func(s Stats) int64 { return s.CheckpointsWritten }},
	{"isingd_checkpoint_bytes_total", "counter", "Bytes of checkpoint data written.", func(s Stats) int64 { return s.CheckpointBytes }},
	{"isingd_checkpoint_failures_total", "counter", "Checkpoint writes that failed (the job fails loudly with them).", func(s Stats) int64 { return s.CheckpointFailures }},
	{"isingd_checkpoint_corrupt_total", "counter", "Checkpoint files quarantined by the startup scan (unreadable, torn or checksum-failing).", func(s Stats) int64 { return s.CheckpointCorrupt }},
	{"isingd_checkpoint_tmp_swept_total", "counter", "Stale checkpoint temp files swept by the startup scan (kill mid-write droppings).", func(s Stats) int64 { return s.CheckpointTmpSwept }},
	{"isingd_stream_wakeups_total", "counter", "NDJSON stream loop iterations across all subscribers.", func(s Stats) int64 { return s.StreamWakeups }},
	{"isingd_cache_misses_total", "counter", "Result-cache lookups that found nothing.", func(s Stats) int64 { return s.CacheMisses }},
	{"isingd_cache_evictions_total", "counter", "Result-cache entries evicted by the size, byte or TTL bounds.", func(s Stats) int64 { return s.CacheEvictions }},
	{"isingd_quota_rejections_total", "counter", "Submissions rejected by the per-client quota (HTTP 429).", func(s Stats) int64 { return s.QuotaRejections }},
	{"isingd_queue_full_rejections_total", "counter", "Submissions rejected by the queue-depth bound (HTTP 503).", func(s Stats) int64 { return s.QueueFullRejections }},
	{"isingd_worker_panics_total", "counter", "Worker panics converted into failed jobs.", func(s Stats) int64 { return s.WorkerPanics }},
	{"isingd_cache_bytes", "gauge", "Current encoded bytes held by the result cache (bounded by CacheBytes).", func(s Stats) int64 { return s.CacheBytes }},
	{"isingd_cache_entries", "gauge", "Current result-cache entries (bounded by CacheSize).", func(s Stats) int64 { return int64(s.CacheEntries) }},
	{"isingd_jobs_queued", "gauge", "Jobs waiting for a worker.", func(s Stats) int64 { return int64(s.Queued) }},
	{"isingd_jobs_running", "gauge", "Jobs occupying workers.", func(s Stats) int64 { return int64(s.Running) }},
	{"isingd_workers", "gauge", "Worker-pool size.", func(s Stats) int64 { return int64(s.Workers) }},
}

// promHistogram names one exposed stage-latency histogram and where it lives
// on the server.
type promHistogram struct {
	name string
	help string
	h    func(*Server) *hist.Histogram
}

// promHistograms is the /metrics histogram catalogue: the four stages a job's
// server-side time goes to. Each renders as a real Prometheus histogram type
// (_bucket series over hist.DefaultBuckets plus +Inf, _sum, _count), which
// isingload reconstructs into interval quantiles by differencing two scrapes.
var promHistograms = []promHistogram{
	{"isingd_queue_wait_seconds", "Time jobs spent queued before a worker admitted them.", func(s *Server) *hist.Histogram { return s.queueWaitH }},
	{"isingd_run_seconds", "Worker occupancy per job, admission to terminal state.", func(s *Server) *hist.Histogram { return s.runH }},
	{"isingd_checkpoint_write_seconds", "Checkpoint file writes (intent records and snapshots), encode through fsync and rename.", func(s *Server) *hist.Histogram { return s.checkpointWriteH }},
	{"isingd_stream_write_seconds", "NDJSON stream write batches, encode through flush.", func(s *Server) *hist.Histogram { return s.streamWriteH }},
}

// renderMetrics renders the full Prometheus text exposition: the scalar
// catalogue, the build-info and uptime gauges, then the stage-latency
// histograms.
func (s *Server) renderMetrics() string {
	var b strings.Builder
	st := s.Stats()
	for _, m := range promMetrics {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		fmt.Fprintf(&b, "%s %d\n", m.name, m.value(st))
	}
	fmt.Fprintf(&b, "# HELP isingd_build_info Build metadata; the value is always 1.\n")
	fmt.Fprintf(&b, "# TYPE isingd_build_info gauge\n")
	fmt.Fprintf(&b, "isingd_build_info{version=%q,goversion=%q} 1\n", s.cfg.Version, runtime.Version())
	fmt.Fprintf(&b, "# HELP isingd_uptime_seconds Server age on its own clock.\n")
	fmt.Fprintf(&b, "# TYPE isingd_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "isingd_uptime_seconds %s\n", formatFloat(st.UptimeSeconds))
	for _, m := range promHistograms {
		counts, count, sum := m.h(s).Cumulative(hist.DefaultBuckets)
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
		for i, bound := range hist.DefaultBuckets {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), counts[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, count)
		fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(sum))
		fmt.Fprintf(&b, "%s_count %d\n", m.name, count)
	}
	return b.String()
}

// formatFloat renders a float sample value the shortest way that round-trips,
// matching how Prometheus clients print bounds (0.25, not 0.250000).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// handleMetrics serves GET (and HEAD) /metrics: the server counters, gauges
// and stage-latency histograms in the Prometheus text exposition format
// (version 0.0.4), scrape-ready for any Prometheus and parsed by isingload's
// threshold gate. The body is rendered up front so Content-Length is always
// set — strict scrapers and `curl -I` probes see the real size — and a HEAD
// request gets the headers alone.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := s.renderMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return
	}
	_, _ = fmt.Fprint(w, body)
}
