package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"tpuising/internal/rng"
)

// procStart approximates process start: package variables initialise before
// main runs, so the first set-up is timed from here.
var procStart = time.Now()

// identity names everything that makes two result records comparable. The
// compare command refuses to pair records whose identities differ, so a
// per-site figure is never set beside a shared-mode one, nor a 2-thread run
// beside a 1-thread run.
type identity struct {
	Workload     string `json:"workload"`
	Mode         string `json:"random_mode"`
	Lattice      string `json:"lattice"`
	Lanes        int    `json:"lanes"`
	ShardGrid    string `json:"shard_grid"`
	Workers      int    `json:"workers"`
	Jobs         string `json:"jobs,omitempty"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	AVX2         bool   `json:"avx2"`
	BuildTags    string `json:"build_tags"`
	GoVersion    string `json:"go_version"`
	SetupRepeats int    `json:"setup_repeats"`
	RunSeconds   int    `json:"run_seconds"`
	Trace        bool   `json:"trace"`
}

// stamp fills the runtime half of an identity.
func (id identity) stamp(setupRepeats, seconds int, trace bool) identity {
	id.GOMAXPROCS = runtime.GOMAXPROCS(0)
	id.NumCPU = runtime.NumCPU()
	id.AVX2 = rng.HasAVX2()
	id.GoVersion = runtime.Version()
	id.BuildTags = buildTags()
	id.SetupRepeats = setupRepeats
	id.RunSeconds = seconds
	id.Trace = trace
	return id
}

// buildTags reads the -tags the binary was built with.
func buildTags() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				return s.Value
			}
		}
	}
	return ""
}

// pass is one timed pass of a workload: the duration of every job (the
// workload's unit of work), the wall time and the attempted spin updates.
type pass struct {
	ops   []time.Duration
	wall  time.Duration
	flips float64
}

// endToEnd fills the pass's end-to-end metrics into m.
func (p pass) endToEnd(m map[string]float64) {
	ms := durationsMs(p.ops)
	m["flips_per_ns"] = p.flips / float64(p.wall.Nanoseconds())
	m["job_ms_p50"] = median(ms)
	m["job_ms_p90"] = quantile(ms, 0.9)
	m["jobs_per_s"] = float64(len(p.ops)) / p.wall.Seconds()
}

// checks counts the operations whose outputs were checked and those that
// failed, and keeps the failure messages.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// checkedRun counts one checked operation, failed if fn reports any failure.
func (c *checks) checkedRun(fn func()) {
	n := len(c.failures)
	c.attempted++
	fn()
	if len(c.failures) > n {
		c.failed++
	}
}

// timedSetup builds a workload's state n times and returns the median set-up
// time; the first is timed from process start. Only the last state is kept.
func timedSetup(n int, setup func() error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		runtime.GC()
		t := time.Now()
		if i == 0 {
			t = procStart
		}
		if err := setup(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds), nil
}

// maxRSSMiB returns the process's peak resident set.
func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
