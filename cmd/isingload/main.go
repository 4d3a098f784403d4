// Command isingload is the k6-style load harness of the isingd daemon: it
// drives the REST API with concurrent job submitters and NDJSON stream
// subscribers, reports p50/p95/p99 request latency, error/queue-full and
// cache-hit rates plus server-side counter deltas (sweeps/s, stream wakeups
// per sweep), checks them against declared thresholds, and can write the run
// as a machine-readable JSON snapshot (internal/load). It is the service load
// and robustness gate; the throughput record is the perfbench ledger.
//
// Usage:
//
//	isingload [-addr http://localhost:8765] [-duration 5s]
//	          [-submitters 16] [-subscribers 8] [-cancel-every 0] [-clients 0]
//	          [-backend multispin] [-rows 64] [-sweeps 400] [-interval 50]
//	          [-seeds 0] [-thresholds "submit_p95_ms<250,queue_wait_p95_ms<100"]
//	          [-out snapshot.json]
//	          [-profile cpu.pprof] [-profile-seconds 0] [-debug-addr localhost:6060]
//
// Thresholds may also gate the server-side stage quantiles (queue_wait_p95_ms,
// run_p95_ms, checkpoint_write_p95_ms, stream_write_p95_ms), reconstructed
// from the daemon's Prometheus histogram bucket deltas. -profile captures a
// CPU profile of the daemon during the run: in-process when self-hosting,
// via the daemon's -debug-addr pprof listener when driving a remote one.
//
// With no -addr, isingload boots an in-process daemon on a loopback port
// (flags -workers and -queue shape it) and load-tests that — the same
// service code cmd/isingd serves, so a laptop run needs no separate daemon.
//
// The exit status is the threshold verdict: 0 when every declared check
// passes, 1 otherwise — CI gates on it, k6 style.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tpuising/internal/load"
	"tpuising/internal/service"
)

// defaultThresholds is the declared pass/fail bar of a default run: submits
// answer fast at the 95th percentile, hard errors are rare, at least one
// job completes end to end, and no accepted job fails server-side (a bad
// spec fails every job while every request around it still succeeds).
const defaultThresholds = "submit_p95_ms<250,error_rate<0.01,jobs_done>=1,jobs_failed<=0"

func main() {
	log.SetFlags(0)
	log.SetPrefix("isingload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// errThresholds marks a run that completed but failed its declared checks.
type errThresholds struct{ failed []load.Check }

func (e errThresholds) Error() string {
	names := make([]string, 0, len(e.failed))
	for _, c := range e.failed {
		names = append(names, c.Threshold.String())
	}
	return fmt.Sprintf("%d threshold(s) failed: %s", len(e.failed), strings.Join(names, ", "))
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("isingload", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (e.g. http://localhost:8765); empty boots an in-process daemon")
	duration := fs.Duration("duration", 5*time.Second, "load-generation wall clock")
	submitters := fs.Int("submitters", 16, "concurrent submit→poll→result users")
	subscribers := fs.Int("subscribers", 8, "concurrent NDJSON stream subscribers")
	cancelEvery := fs.Int("cancel-every", 0, "cancel every Nth accepted job right after submit (0 = never)")
	clients := fs.Int("clients", 0, "distinct X-Client-ID identities spread across submitters (0 = anonymous); exercises per-client quotas")
	backendName := fs.String("backend", "multispin", "job backend (registry name)")
	rows := fs.Int("rows", 64, "job lattice side")
	sweeps := fs.Int("sweeps", 400, "measured sweeps per job")
	interval := fs.Int("interval", 50, "sweeps between streamed samples")
	seeds := fs.Int("seeds", 0, "distinct-seed window; repeats hit the result cache (0 = 2x submitters)")
	thresholds := fs.String("thresholds", defaultThresholds, "comma-separated pass/fail gates over report metrics")
	outPath := fs.String("out", "", "JSON snapshot file to write: the report and its threshold verdicts (empty = no snapshot)")
	workers := fs.Int("workers", runtime.NumCPU(), "in-process daemon worker pool (only without -addr)")
	queue := fs.Int("queue", 256, "in-process daemon queue depth (only without -addr)")
	profilePath := fs.String("profile", "", "capture a CPU profile of the daemon during the run into this file (pprof format)")
	profileSecs := fs.Int("profile-seconds", 0, "remote profile capture length in seconds (0 = the -duration, rounded up; only with -addr)")
	debugURL := fs.String("debug-addr", "", "the daemon's -debug-addr (host:port or URL) to fetch remote profiles from (required for -profile with -addr)")
	fs.Parse(args)

	ths, err := load.ParseThresholds(*thresholds)
	if err != nil {
		return err
	}

	baseURL := *addr
	if baseURL == "" {
		url, stop, err := selfHost(service.Config{Workers: *workers, QueueDepth: *queue})
		if err != nil {
			return err
		}
		defer stop()
		baseURL = url
		log.Printf("no -addr: booted in-process daemon on %s (%d workers, queue %d)", url, *workers, *queue)
	}

	sc := load.Scenario{
		BaseURL:     baseURL,
		Submitters:  *submitters,
		Subscribers: *subscribers,
		Duration:    *duration,
		Seeds:       *seeds,
		CancelEvery: *cancelEvery,
		Clients:     *clients,
		Spec: service.JobSpec{
			Backend: *backendName, Rows: *rows,
			Sweeps: *sweeps, SampleInterval: *interval, Seed: 1,
		},
	}
	// -profile captures the DAEMON's CPU during the load run: in-process for
	// a self-hosted daemon (same process, runtime/pprof), over the daemon's
	// -debug-addr pprof listener for a remote one — concurrent with the
	// scenario, so the profile covers the loaded interval.
	var finishProfile func() error
	if *profilePath != "" {
		secs := *profileSecs
		if secs <= 0 {
			secs = int((*duration + time.Second - 1) / time.Second)
		}
		if *addr == "" {
			f, err := os.Create(*profilePath)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			finishProfile = func() error {
				pprof.StopCPUProfile()
				return f.Close()
			}
		} else {
			if *debugURL == "" {
				return fmt.Errorf("-profile with -addr needs -debug-addr (the daemon's pprof listener)")
			}
			profc := make(chan error, 1)
			go func() { profc <- fetchProfile(*debugURL, *profilePath, secs) }()
			finishProfile = func() error { return <-profc }
		}
		log.Printf("capturing CPU profile (%ds) into %s", secs, *profilePath)
	}

	log.Printf("driving %s: %d submitters + %d subscribers for %v", baseURL, *submitters, *subscribers, *duration)
	report, err := sc.Run(context.Background())
	if err != nil {
		return err
	}
	if finishProfile != nil {
		if err := finishProfile(); err != nil {
			return fmt.Errorf("capturing CPU profile: %w", err)
		}
		log.Printf("wrote %s", *profilePath)
	}
	fmt.Fprint(out, report.Text())

	checks, passed := load.EvaluateThresholds(ths, report.Metrics())
	var failed []load.Check
	for _, c := range checks {
		verdict := "pass"
		if !c.OK {
			verdict = "FAIL"
			failed = append(failed, c)
		}
		detail := fmt.Sprintf("actual %g", c.Actual)
		if c.Missing {
			detail = fmt.Sprintf("no such metric (have: %s)", strings.Join(load.MetricNames(report.Metrics()), " "))
		}
		fmt.Fprintf(out, "threshold %-28s %s (%s)\n", c.Threshold.String(), verdict, detail)
	}

	if *outPath != "" {
		snap := &load.Snapshot{
			CreatedAt:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Service:    report,
			Checks:     checks,
			Passed:     passed,
		}
		if err := snap.Write(*outPath); err != nil {
			return err
		}
		log.Printf("wrote %s", *outPath)
	}
	if !passed {
		return errThresholds{failed: failed}
	}
	return nil
}

// fetchProfile downloads a CPU profile from a daemon's -debug-addr pprof
// listener into path. The server itself runs the capture for secs seconds, so
// the HTTP client allows that long plus slack.
func fetchProfile(debugAddr, path string, secs int) error {
	base := debugAddr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", strings.TrimRight(base, "/"), secs)
	client := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s returned %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfHost boots the service behind a real loopback HTTP listener and
// returns its base URL and a shutdown func — the in-process stand-in for a
// separately started isingd, sharing its timeout posture (header timeout,
// no blanket write timeout: streams are long-lived).
func selfHost(cfg service.Config) (url string, stop func(), err error) {
	srv, skipped := service.New(cfg)
	for _, e := range skipped {
		log.Printf("skipping checkpoint: %v", e)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go hs.Serve(ln)
	stop = func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}
