package load

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpuising/internal/service"
)

func TestParsePromText(t *testing.T) {
	const text = `# HELP isingd_jobs_submitted_total Jobs accepted.
# TYPE isingd_jobs_submitted_total counter
isingd_jobs_submitted_total 42

# TYPE isingd_cache_bytes gauge
isingd_cache_bytes 1.5e+03
`
	m, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["isingd_jobs_submitted_total"] != 42 {
		t.Errorf("submitted = %g, want 42", m["isingd_jobs_submitted_total"])
	}
	if m["isingd_cache_bytes"] != 1500 {
		t.Errorf("cache_bytes = %g, want 1500", m["isingd_cache_bytes"])
	}
	// A malformed line must be an error, not a silently dropped metric: a
	// dropped counter would read as "it never moved" and pass a >= gate.
	for _, bad := range []string{"lonely_name\n", "a b c\n", "metric notanumber\n"} {
		if _, err := parsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("parsePromText(%q) passed, want error", bad)
		}
	}
}

func TestParsePromTextLabelled(t *testing.T) {
	const text = `# TYPE isingd_queue_wait_seconds histogram
isingd_queue_wait_seconds_bucket{le="0.25"} 3
isingd_queue_wait_seconds_bucket{le="+Inf"} 5
isingd_queue_wait_seconds_sum 1.5
isingd_queue_wait_seconds_count 5
isingd_build_info{version="dev",goversion="go1.24"} 1
`
	m, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// Labelled samples key verbatim — labels and all — which is what the
	// bucket-delta quantile math looks up.
	for key, want := range map[string]float64{
		`isingd_queue_wait_seconds_bucket{le="0.25"}`:         3,
		`isingd_queue_wait_seconds_bucket{le="+Inf"}`:         5,
		"isingd_queue_wait_seconds_count":                     5,
		`isingd_build_info{version="dev",goversion="go1.24"}`: 1,
	} {
		if m[key] != want {
			t.Errorf("m[%s] = %g, want %g", key, m[key], want)
		}
	}
	// An unknown # TYPE is an error — the CI smoke asserts the daemon's
	// exposition contains only types this parser interprets.
	if _, err := parsePromText(strings.NewReader("# TYPE foo summary\nfoo 1\n")); err == nil {
		t.Error("unknown TYPE parsed, want error")
	}
	// A labelled sample with trailing junk is malformed, not two samples.
	if _, err := parsePromText(strings.NewReader(`x_bucket{le="1"} 2 3` + "\n")); err == nil {
		t.Error("labelled line with trailing junk parsed, want error")
	}
}

func TestHistQuantileDelta(t *testing.T) {
	scrape := func(le1, le2, inf, count float64) map[string]float64 {
		return map[string]float64{
			`h_bucket{le="1"}`:    le1,
			`h_bucket{le="2"}`:    le2,
			`h_bucket{le="+Inf"}`: inf,
			"h_count":             count,
		}
	}
	// Only the interval between the scrapes counts: the 90 pre-existing
	// observations under le=1 subtract out, leaving 10 in (1, 2] whose
	// median interpolates to 1.5s.
	before := scrape(90, 90, 90, 90)
	after := scrape(90, 100, 100, 100)
	if got := histQuantileDelta(before, after, "h", 0.5); got != 1.5 {
		t.Errorf("p50 delta = %g, want 1.5", got)
	}
	// A histogram absent from the scrape, or one that recorded nothing
	// during the interval, reads 0 — thresholds over it stay evaluable.
	if got := histQuantileDelta(before, after, "absent", 0.5); got != 0 {
		t.Errorf("absent histogram = %g, want 0", got)
	}
	if got := histQuantileDelta(after, after, "h", 0.5); got != 0 {
		t.Errorf("idle interval = %g, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	// Log-bucketed quantiles are accurate to the ~12% bucket width.
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		lo := time.Duration(float64(tc.want) * 0.85)
		hi := time.Duration(float64(tc.want) * 1.15)
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within 15%% of %v", tc.q, got, tc.want)
		}
	}
	s := h.Summary()
	if s.MaxMs != 1000 {
		t.Errorf("max = %vms, want exactly 1000 (true max is exact)", s.MaxMs)
	}
	// Non-strict: nearby quantiles may share a log bucket.
	if s.P50Ms > s.P95Ms || s.P95Ms > s.P99Ms {
		t.Errorf("quantiles not monotone: %+v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.95); q != 0 {
		t.Fatalf("empty histogram p95 = %v, want 0", q)
	}
	if s := h.Summary(); s.Count != 0 || s.P95Ms != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestParseThresholds(t *testing.T) {
	ts, err := ParseThresholds("submit_p95_ms<250, error_rate<=0.01,jobs_done>=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Threshold{
		{Metric: "submit_p95_ms", Op: "<", Value: 250},
		{Metric: "error_rate", Op: "<=", Value: 0.01},
		{Metric: "jobs_done", Op: ">=", Value: 1},
	}
	if len(ts) != len(want) {
		t.Fatalf("parsed %d thresholds, want %d", len(ts), len(want))
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("threshold %d = %+v, want %+v", i, ts[i], want[i])
		}
	}
	for _, bad := range []string{"p95<", "<5", "p95~5", "p95<abc"} {
		if _, err := ParseThreshold(bad); err == nil {
			t.Errorf("ParseThreshold(%q) passed, want error", bad)
		}
	}
}

func TestEvaluateThresholds(t *testing.T) {
	metrics := map[string]float64{"error_rate": 0.005, "submit_p95_ms": 300}
	checks, pass := EvaluateThresholds([]Threshold{
		{Metric: "error_rate", Op: "<", Value: 0.01},
		{Metric: "submit_p95_ms", Op: "<", Value: 250},
	}, metrics)
	if pass {
		t.Fatal("evaluation passed with a breached threshold")
	}
	if !checks[0].OK || checks[1].OK {
		t.Fatalf("checks: %+v", checks)
	}
	// A threshold over a metric the report does not export must fail loudly.
	checks, pass = EvaluateThresholds([]Threshold{{Metric: "no_such", Op: "<", Value: 1}}, metrics)
	if pass || !checks[0].Missing {
		t.Fatalf("missing metric: pass=%v checks=%+v", pass, checks)
	}
}

// startService boots an in-process service behind a real HTTP listener —
// the system under test for scenario runs.
func startService(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, _ := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

// TestScenarioAgainstService runs a short mixed scenario against a live
// in-process daemon and checks the report is coherent: requests flowed,
// jobs completed, the seed window produced cache hits, streams saw samples,
// and the server delta matches the client view.
func TestScenarioAgainstService(t *testing.T) {
	_, ts := startService(t, service.Config{Workers: 2, QueueDepth: 64})
	sc := Scenario{
		BaseURL:     ts.URL,
		Submitters:  4,
		Subscribers: 2,
		Duration:    1500 * time.Millisecond,
		Seeds:       3,
		Spec: service.JobSpec{Backend: "checkerboard", Rows: 16,
			Temperature: 2.5, Sweeps: 50, SampleInterval: 10},
	}
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 || r.JobsDone == 0 {
		t.Fatalf("no traffic: %+v", r)
	}
	if r.Errors != 0 {
		t.Fatalf("scenario saw %d errors against a healthy daemon:\n%s", r.Errors, r.Text())
	}
	if r.CacheHits == 0 {
		t.Fatalf("a 3-seed window never hit the cache over %d jobs", r.JobsDone)
	}
	if r.Server.SweepsRun == 0 {
		t.Fatal("server delta shows no sweeps")
	}
	if r.Server.JobsCached == 0 {
		t.Fatal("server delta shows no cache hits")
	}
	if r.Submit.Count == 0 || r.Submit.P95Ms <= 0 {
		t.Fatalf("submit latency summary empty: %+v", r.Submit)
	}
	m := r.Metrics()
	for _, name := range []string{"error_rate", "cache_hit_rate", "requests_per_sec",
		"submit_p95_ms", "stream_wakeups_per_sweep"} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %q missing from %v", name, MetricNames(m))
		}
	}
	if m["error_rate"] != 0 {
		t.Fatalf("error_rate = %g, want 0", m["error_rate"])
	}
	if r.Text() == "" {
		t.Fatal("empty text summary")
	}
}

// TestScenarioSubscribersSeeSamples focuses the stream path: subscribers
// consume NDJSON lines and the server-side wakeup counter stays in the
// per-sample regime, not the per-sweep one — the wake-storm regression seen
// from the outside.
func TestScenarioSubscribersSeeSamples(t *testing.T) {
	_, ts := startService(t, service.Config{Workers: 2})
	sc := Scenario{
		BaseURL:     ts.URL,
		Submitters:  2,
		Subscribers: 8,
		Duration:    1500 * time.Millisecond,
		Seeds:       1000, // effectively no cache hits: keep jobs sweeping
		Spec: service.JobSpec{Backend: "checkerboard", Rows: 32,
			Temperature: 2.5, Sweeps: 4000, SampleInterval: 400},
	}
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.SamplesStreamed == 0 {
		t.Fatalf("subscribers consumed no samples:\n%s", r.Text())
	}
	if r.Server.SweepsRun == 0 {
		t.Fatal("no sweeps ran")
	}
	// 8 subscribers over jobs emitting 1 sample per 400 sweeps: per-sweep
	// broadcasts would put wakeups/sweep near the subscriber count; the
	// sample-only channel keeps it well below one.
	if w := r.Server.WakeupsPerSweep; w > 1 {
		t.Fatalf("stream wakeups per sweep = %.3f with %d subscribers (storm regression; report:\n%s)",
			w, sc.Subscribers, r.Text())
	}
}

// TestScenarioCancelHeavy drives the cancel path under a tiny queue: with
// canceled jobs freeing their slots, the run keeps completing jobs instead
// of drowning in queue-full rejections.
func TestScenarioCancelHeavy(t *testing.T) {
	_, ts := startService(t, service.Config{Workers: 1, QueueDepth: 2})
	sc := Scenario{
		BaseURL:     ts.URL,
		Submitters:  4,
		Subscribers: 0,
		Duration:    1500 * time.Millisecond,
		Seeds:       1000,
		CancelEvery: 2,
		Spec: service.JobSpec{Backend: "checkerboard", Rows: 16,
			Temperature: 2.5, Sweeps: 200, SampleInterval: 50},
	}
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsCanceled == 0 {
		t.Fatalf("cancel-heavy scenario canceled nothing:\n%s", r.Text())
	}
	if r.JobsDone == 0 {
		t.Fatalf("no job completed next to cancels (queue slots pinned?):\n%s", r.Text())
	}
	if r.Errors != 0 {
		t.Fatalf("cancel-heavy run errored %d times:\n%s", r.Errors, r.Text())
	}
}

// TestScenarioQuotasAndEvictions drives a quota-limited, cache-starved
// daemon with several client identities — the configuration the CI load
// smoke gates on. Quota rejections must show up on both sides of the wire
// (client 429 count, server counter delta), cache evictions must register,
// and none of it may count as an error.
func TestScenarioQuotasAndEvictions(t *testing.T) {
	// One worker and jobs a few hundred sweeps long: arrivals outrun the
	// drain, the queue backs up, and each client's 4 submitters contend for
	// a 1-queued + 1-running quota. Tiny instant jobs would drain before a
	// second same-client submission ever lands.
	_, ts := startService(t, service.Config{
		Workers:             1,
		QueueDepth:          64,
		CacheSize:           4,
		MaxQueuedPerClient:  1,
		MaxRunningPerClient: 1,
	})
	sc := Scenario{
		BaseURL:     ts.URL,
		Submitters:  8,
		Subscribers: 2,
		Clients:     2,
		Duration:    1500 * time.Millisecond,
		Seeds:       64, // far past CacheSize: storing results must evict
		Spec: service.JobSpec{Backend: "checkerboard", Rows: 32,
			Temperature: 2.5, Sweeps: 400, SampleInterval: 100},
	}
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Errors != 0 {
		t.Fatalf("quota rejections counted as errors:\n%s", r.Text())
	}
	if r.QuotaRejected == 0 {
		t.Fatalf("8 submitters as 2 clients against a 1-queued/1-running quota never saw a 429:\n%s", r.Text())
	}
	if r.Server.QuotaRejections == 0 {
		t.Fatalf("server metrics delta shows no quota rejections:\n%s", r.Text())
	}
	if r.Server.CacheEvictions == 0 {
		t.Fatalf("64 seeds over a 4-entry cache evicted nothing:\n%s", r.Text())
	}
	if r.JobsDone == 0 {
		t.Fatalf("no job completed under quotas:\n%s", r.Text())
	}
	m := r.Metrics()
	for _, name := range []string{"quota_rejections", "cache_evictions", "cache_bytes", "worker_panics"} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %q missing from %v", name, MetricNames(m))
		}
	}
	if m["worker_panics"] != 0 {
		t.Fatalf("worker panics under plain load: %g", m["worker_panics"])
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	snap := &Snapshot{
		GoVersion:  "go-test",
		GOMAXPROCS: 8,
		Service:    &Report{Requests: 42, JobsDone: 7},
		Checks:     []Check{{Threshold: Threshold{Metric: "error_rate", Op: "<", Value: 0.01}, Actual: 0, OK: true}},
		Passed:     true,
	}
	if err := snap.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != "go-test" || got.Service.Requests != 42 || !got.Passed || len(got.Checks) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}
