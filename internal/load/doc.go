// Package load is the k6-style load harness of the isingd REST service: it
// drives a daemon with concurrent job submitters and NDJSON stream
// subscribers, records per-request latency histograms (p50/p95/p99),
// error/queue-full/cache-hit rates and server-side counter deltas
// (sweeps/s, stream wakeups per sweep), checks them against declared
// thresholds, and writes the run as a machine-readable JSON snapshot. It is
// the service load and robustness gate; engine throughput is recorded by the
// perfbench ledger, not here.
//
// The pieces compose the way k6's metrics/thresholds pipeline does:
//
//   - Histogram / LatencySummary: lock-cheap log-bucketed latency
//     recording with quantile extraction.
//   - Threshold / Check: declared pass/fail gates over the flat metric
//     names a Report exports ("submit_p95_ms<250", "error_rate<0.01").
//   - Scenario: the virtual-user mix — submitters that POST specs and await
//     results (a configurable fraction canceling instead, which is what
//     surfaced the queue-slot-pinning bug), and subscribers that follow
//     /stream NDJSON (which is what surfaced the wake-storm).
//   - Snapshot: the JSON record of one run: the scenario Report and its
//     threshold Checks.
//
// cmd/isingload is the CLI over this package; internal/service is the
// system under test.
package load
