// Command perfbench is the repository's benchmark of record: three workloads
// (persite-4096, ladder-sharded, service-mixed) measured end to end, and a
// traced run that fills a per-layer flips/ns ledger down the stack, Philox
// block → row kernel → engine sweep → lane batch → mesh shards → tempering →
// service job. It drives every layer from outside, through public entry
// points and the daemon's HTTP handler.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <parent-dir> <change-dir>
//
// The last line of a run's standard output is the result object; the line
// before it is the full record (identity, metrics, failures) that compare
// reads. perfbench/run.sh builds the binary from the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
)

// workDir holds everything a run writes: checkpoint directories and spans.
const workDir = ".bench_build"

// setupRepeats is how many times a run builds a workload's state; setup_s
// is the median. The daemon starts in well under a millisecond, so it is
// started more often to keep its median steady.
var setupRepeats = map[string]int{"persite-4096": 5, "ladder-sharded": 5, "service-mixed": 21}

const (
	// minJobs makes every untraced run complete enough jobs for its p90 to
	// have ten samples beyond it.
	minJobs = 100
	// minLedgerJobs is the floor for each traced pass of the ledger.
	minLedgerJobs = 20
)

// workload is one benchmark workload. run may be called more than once per
// setup; check verifies the state and outputs of everything run since setup.
type workload interface {
	identity() identity
	setup() error
	run(tr *tracer, parent int, budget time.Duration, minJobs int) pass
	check(c *checks)
	layers(spans []span, m map[string]float64) error
	close()
}

var workloadNames = []string{"persite-4096", "ladder-sharded", "service-mixed"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "persite-4096":
		return newPersite(seed), nil
	case "ladder-sharded":
		return newLadder(seed), nil
	case "service-mixed":
		return newSvc(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func (p *persite) close() { p.eng = nil }
func (l *ladder) close()  { l.eng, l.ens = nil, nil }

// record is the full result of one run, printed on the line before the
// result object and read back by compare.
type record struct {
	Identity  identity           `json:"identity"`
	Seed      uint64             `json:"seed"`
	Jobs      int                `json:"jobs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// SelfMs is a traced run's self time per span name, summed: where the
	// run's time went, layer by layer.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: persite-4096, ladder-sharded, service-mixed, or all (each in turn)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	code := 0
	for _, n := range names {
		if c := runOne(n, *seed, *seconds, *trace == 1, out); c > code {
			code = c
		}
	}
	return code
}

// runOne runs and reports one workload; it returns the exit code: 1 when a
// correctness check failed, 2 when the run could not complete.
func runOne(name string, seed uint64, seconds int, traced bool, out io.Writer) int {
	if _, err := newWorkload(name, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var (
		rec *record
		err error
	)
	if traced {
		spans := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		rec, err = runLedger(name, seed, seconds, spans)
	} else {
		rec, err = runEndToEnd(name, seed, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := report(out, rec, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if rec.Failed > 0 {
		for _, f := range rec.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// runEndToEnd is the untraced run: set-up (repeated), one timed pass, the
// correctness checks and every end-to-end metric.
func runEndToEnd(name string, seed uint64, seconds int) (*record, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setupS, err := timedSetup(setupRepeats[name], w.setup)
	if err != nil {
		return nil, err
	}
	ps := w.run(nil, 0, time.Duration(seconds)*time.Second, minJobs)
	var c checks
	w.check(&c)
	m := map[string]float64{"setup_s": setupS}
	ps.endToEnd(m)
	rss, err := maxRSSMiB()
	if err != nil {
		return nil, err
	}
	m["max_rss_mb"] = rss
	return &record{
		Identity: w.identity().stamp(setupRepeats[name], seconds, false),
		Seed:     seed, Jobs: len(ps.ops),
		Attempted: c.attempted, Failed: c.failed, Failures: c.failures,
		Metrics: m,
	}, nil
}

// runLedger is the traced run. Every workload gets a traced pass (the
// primary one the largest share) so every per-layer metric is reported; the
// primary workload also gets an untraced pass of the same length first, and
// the throughput lost between the two is the tracing overhead. Layer replays
// on the passes' own state fill the rest of the ledger.
func runLedger(primary string, seed uint64, seconds int, spansPath string) (*record, error) {
	total := time.Duration(seconds) * time.Second
	tr := newTracer()
	m := make(map[string]float64)
	var (
		c     checks
		jobs  int
		ident identity
	)
	tracedPass := func(name string) error {
		w, err := newWorkload(name, seed)
		if err != nil {
			return err
		}
		defer w.close()
		budget := total * 15 / 100
		var untracedMs float64
		if name == primary {
			budget = total / 4
			ident = w.identity().stamp(setupRepeats[name], seconds, true)
			if err := w.setup(); err != nil {
				return err
			}
			untraced := w.run(nil, 0, budget, minLedgerJobs)
			w.check(&c)
			untracedMs = median(durationsMs(untraced.ops))
		}
		if err := w.setup(); err != nil {
			return err
		}
		root := tr.begin("workload."+name, 0)
		traced := w.run(tr, root, budget, minLedgerJobs)
		tr.end(root)
		w.check(&c)
		if name == primary {
			m["trace.overhead_frac"] = median(durationsMs(traced.ops))/untracedMs - 1
			jobs = len(traced.ops)
		}
		return w.layers(tr.snapshot(), m)
	}
	for _, name := range workloadNames {
		if err := tracedPass(name); err != nil {
			return nil, err
		}
	}
	if err := snapshotLayer(m); err != nil {
		return nil, err
	}
	newMs, err := backendNewMs(primary, seed)
	if err != nil {
		return nil, err
	}
	m["backend.new_ms"] = newMs
	m["error_rate"] = float64(c.failed) / float64(c.attempted)
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	selfMs := make(map[string]float64)
	for _, sp := range spans {
		selfMs[sp.Name] += float64(self[sp.ID]) / 1e6
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			return nil, fmt.Errorf("ledger is missing %s", d.Name)
		}
	}
	return &record{
		Identity: ident, Seed: seed, Jobs: jobs,
		Attempted: c.attempted, Failed: c.failed, Failures: c.failures,
		Metrics: m, SelfMs: selfMs,
	}, nil
}

// snapshotLayer times the checkpoint codec on the service mix's single-chain
// lattice: Snapshot plus EncodeSnapshot, median of many encodes.
func snapshotLayer(m map[string]float64) error {
	spec := jobKinds[0].spec
	b, err := backend.New(spec.Backend, backend.Config{
		Rows: spec.Rows, Cols: spec.Cols, Temperature: spec.Temperature, Seed: 1, Workers: 1, Hot: true,
	})
	if err != nil {
		return err
	}
	snapper, ok := b.(ising.Snapshotter)
	if !ok {
		return errors.New("snapshot layer: the single-chain engine is not an ising.Snapshotter")
	}
	b.Sweep()
	var size int
	ds := make([]float64, 201)
	for i := range ds {
		t := time.Now()
		snap, err := snapper.Snapshot()
		if err != nil {
			return err
		}
		size = len(ising.EncodeSnapshot(snap))
		ds[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	m["snapshot.encode_us"] = median(ds)
	m["snapshot.bytes"] = float64(size)
	return nil
}

// backendNewMs times the construction of the primary workload's engine
// through the backend factory: the 4096² hot chain, the sharded ladder
// batch, or one single-chain service job's engine.
func backendNewMs(primary string, seed uint64) (float64, error) {
	var build func() error
	switch primary {
	case "persite-4096":
		build = func() error {
			_, err := backend.New("multispin", backend.Config{Rows: persiteSize, Cols: persiteSize,
				Temperature: persiteTemp, Seed: seed, Workers: newPersite(seed).workers, Hot: true})
			return err
		}
	case "ladder-sharded":
		l := newLadder(seed)
		build = func() error {
			_, err := backend.NewBatchLadder("sharded-ensemble", backend.Config{Rows: ladderSize, Cols: ladderSize,
				Seed: seed, GridR: ladderGridR, GridC: ladderGridC, Hot: true}, l.temps)
			return err
		}
	default:
		spec := jobKinds[0].spec
		build = func() error {
			_, err := backend.New(spec.Backend, backend.Config{Rows: spec.Rows, Cols: spec.Cols,
				Temperature: spec.Temperature, Seed: seed, Workers: spec.Workers, Hot: true})
			return err
		}
	}
	var buildErr error
	d := medianOf(3, func() time.Duration {
		t := time.Now()
		if err := build(); err != nil {
			buildErr = err
		}
		return time.Since(t)
	})
	if buildErr != nil {
		return 0, buildErr
	}
	return float64(d.Nanoseconds()) / 1e6, nil
}

// report prints every metric by name with its unit, the record line, and the
// result object as the last line.
func report(out io.Writer, rec *record, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(out, "# %s seed=%d jobs=%d gomaxprocs=%d avx2=%v tags=%q\n", rec.Identity.Workload, rec.Seed,
		rec.Jobs, rec.Identity.GOMAXPROCS, rec.Identity.AVX2, rec.Identity.BuildTags)
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	names := make([]string, 0, len(rec.SelfMs))
	for name := range rec.SelfMs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# self time %-28s %12.1f ms\n", name, rec.SelfMs[name])
	}
	if !traced {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", "error_rate", float64(rec.Failed)/float64(rec.Attempted), "fraction")
		if pm, ok := tailPermille(rec.Jobs); ok {
			fmt.Fprintf(out, "# highest percentile with >= 10 jobs beyond it: p%g of %d jobs\n", float64(pm)/10, rec.Jobs)
		}
	}
	line, err := json.Marshal(map[string]*record{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}
