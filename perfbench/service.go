package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"tpuising/internal/ising/backend"
	"tpuising/internal/service"
	"tpuising/internal/service/encode"
	"tpuising/internal/stats"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
)

// service-mixed: an in-process isingd (service.New + Handler on a loopback
// listener) with two workers and checkpointing on, driven by two closed-loop
// clients. Each job is POST, the NDJSON stream read to its end, then GET of
// the result; the mix cycles through three kinds and every submission has a
// fresh seed, so the result cache never hits.
const (
	serviceWorkers      = 2
	serviceClients      = 2
	serviceCkptInterval = 50
)

// jobKinds is the service mix. All run engine Workers = 1.
var jobKinds = []struct {
	name string
	spec service.JobSpec
}{
	// A checkpointed single chain: disk writes beside stream reads.
	{"single", service.JobSpec{Backend: "multispin", Rows: 128, Cols: 128, Temperature: 2.5,
		Sweeps: 260, Hot: true, SampleInterval: 10, Workers: 1, Replicas: 1}},
	// A 16-lane batch: the lane-packed ensemble path.
	{"batch", service.JobSpec{Backend: "multispin", Rows: 64, Cols: 64, Temperature: 2.5,
		Sweeps: 70, Hot: true, SampleInterval: 10, Workers: 1, Replicas: 16}},
	// A 4-rung tempering ladder.
	{"ladder", service.JobSpec{Backend: "multispin", Rows: 64, Cols: 64,
		Temperatures: []float64{2.1, 2.2, 2.3, 2.4}, SwapInterval: 10,
		Sweeps: 100, Hot: true, SampleInterval: 1, Workers: 1, Replicas: 1}},
}

// jobSpec returns the spec of the service pass's i-th submission. Seeds are
// a bijective mix of (run seed, i), so no two submissions share a seed.
func jobSpec(seed uint64, i int64) (kind int, spec service.JobSpec) {
	kind = int(i % int64(len(jobKinds)))
	spec = jobKinds[kind].spec
	spec.Temperatures = append([]float64(nil), spec.Temperatures...)
	spec.Seed = splitmix64(seed*0x9E3779B97F4A7C15 + uint64(i))
	return kind, spec
}

// splitmix64 is the SplitMix64 finaliser, a bijection on uint64.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// servedJob is what a client saw of one job.
type servedJob struct {
	id      string
	spec    service.JobSpec
	samples []encode.Sample
	result  encode.Result
}

type svc struct {
	seed   uint64
	dir    string
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	next   atomic.Int64

	mu        sync.Mutex
	firsts    map[int]*servedJob // first completed job of each kind
	attempted int                // jobs submitted since the last check
	failed    int                // of which failed
	errs      []string

	// Per-pass records for the ledger.
	statsBefore service.Stats
	ids         []string // jobs completed in the pass
	jobMs       []float64
	flips       float64
	libNs       float64
}

func newSvc(seed uint64) *svc { return &svc{seed: seed} }

func (s *svc) identity() identity {
	return identity{
		Workload: "service-mixed", Mode: "per-site",
		Lattice: "128x128|64x64|64x64", Lanes: 16, ShardGrid: "1x1", Workers: serviceWorkers,
		Jobs: fmt.Sprintf("clients=%d single-128-ckpt%d|batch-16x64|ladder-4x64", serviceClients, serviceCkptInterval),
	}
}

// setup starts a fresh daemon over an empty checkpoint directory inside the
// checkout.
func (s *svc) setup() error {
	s.close()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fmt.Errorf("service setup: %w", err)
	}
	dir, err := os.MkdirTemp(workDir, "ckpt-")
	if err != nil {
		return fmt.Errorf("service setup: %w", err)
	}
	srv, skipped := service.New(service.Config{
		Workers: serviceWorkers, CheckpointDir: dir, CheckpointInterval: serviceCkptInterval,
	})
	if len(skipped) > 0 {
		srv.Close()
		return fmt.Errorf("service setup: fresh checkpoint dir reported %v", skipped)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fmt.Errorf("service setup: %w", err)
	}
	s.dir, s.srv = dir, srv
	s.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once close() runs
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	s.firsts = make(map[int]*servedJob)
	s.errs = nil
	return nil
}

// close stops the daemon, waits for its goroutines and removes its
// checkpoint directory.
func (s *svc) close() {
	if s.hs == nil {
		return
	}
	_ = s.hs.Close()
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.dir)
	s.hs, s.srv = nil, nil
}

// run drives the closed loop until the budget is spent and at least minJobs
// jobs have finished.
func (s *svc) run(tr *tracer, parent int, budget time.Duration, minJobs int) pass {
	s.statsBefore = s.srv.Stats()
	s.ids, s.jobMs, s.flips, s.libNs = nil, nil, 0, 0
	var (
		mu       sync.Mutex
		ps       pass
		finished atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget || finished.Load() < int64(minJobs) {
				i := s.next.Add(1) - 1
				kind, spec := jobSpec(s.seed, i)
				t := time.Now()
				job, err := s.do(tr, parent, spec)
				d := time.Since(t)
				finished.Add(1)
				s.mu.Lock()
				s.attempted++
				s.mu.Unlock()
				if err != nil {
					s.mu.Lock()
					s.failed++
					s.errs = append(s.errs, err.Error())
					s.mu.Unlock()
					continue
				}
				mu.Lock()
				ps.ops = append(ps.ops, d)
				s.ids = append(s.ids, job.id)
				ps.flips += float64(job.result.Ops)
				s.libNs += job.result.ElapsedSec * 1e9
				mu.Unlock()
				s.mu.Lock()
				if s.firsts[kind] == nil {
					s.firsts[kind] = job
				}
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ps.wall = time.Since(start)
	s.jobMs = durationsMs(ps.ops)
	s.flips = ps.flips
	return ps
}

// do runs one job through the HTTP API: submit, stream to the end, result.
func (s *svc) do(tr *tracer, parent int, spec service.JobSpec) (*servedJob, error) {
	jid := tr.begin("service.job", parent)
	defer tr.end(jid)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	id := tr.begin("service.submit", jid)
	err = s.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	job := &servedJob{id: st.ID, spec: st.Spec}
	id = tr.begin("service.stream", jid)
	err = s.call(http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			var sm encode.Sample
			if err := json.Unmarshal(sc.Bytes(), &sm); err != nil {
				return err
			}
			job.samples = append(job.samples, sm)
		}
		return sc.Err()
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("service.result", jid)
	err = s.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&job.result)
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return job, nil
}

// call performs one request and hands a response with the wanted status to
// read; any other status is an error carrying the body.
func (s *svc) call(method, path string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// check requires the first job of each kind to equal a direct library run of
// the same spec byte for byte (result JSON without its two wall-clock
// fields, and every streamed sample), and the cache to have served nothing.
// A mismatching or cached job counts as a failed job.
func (s *svc) check(c *checks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.errs {
		c.fail("service: %s", e)
	}
	for kind := range jobKinds {
		job := s.firsts[kind]
		if job == nil {
			c.fail("service: no %s job completed", jobKinds[kind].name)
			s.failed++
			continue
		}
		want, samples, err := directRun(job.id, job.spec)
		if err != nil {
			c.fail("service: direct %s run: %v", jobKinds[kind].name, err)
			s.failed++
			continue
		}
		if !bytes.Equal(canonical(job.result), canonical(*want)) {
			c.fail("service: %s job %s result differs from the direct library run:\n  served %s\n  direct %s",
				jobKinds[kind].name, job.id, canonical(job.result), canonical(*want))
			s.failed++
			continue
		}
		if !reflect.DeepEqual(job.samples, samples) {
			c.fail("service: %s job %s streamed %d samples unlike the direct run's %d",
				jobKinds[kind].name, job.id, len(job.samples), len(samples))
			s.failed++
		}
	}
	if hits := s.srv.Stats().JobsCached; hits != 0 {
		c.fail("service: %d submissions were served from the cache", hits)
		s.failed += int(hits)
	}
	c.attempted += s.attempted
	c.failed += s.failed
	s.attempted, s.failed = 0, 0
}

// canonical is a result's JSON without the wall-clock fields.
func canonical(r encode.Result) []byte {
	r.ElapsedSec, r.FlipsPerNs = 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// directRun computes a normalized spec's result and stream with the library
// alone — backend, sweep, stats, tempering and encode — the way the daemon's
// run loops do, without the daemon.
func directRun(jobID string, spec service.JobSpec) (*encode.Result, []encode.Sample, error) {
	cfg := backend.Config{
		Rows: spec.Rows, Cols: spec.Cols, Temperature: spec.Temperature,
		Seed: spec.Seed, Workers: spec.Workers, GridR: spec.GridR, GridC: spec.GridC, Hot: spec.Hot,
	}
	r := &encode.Result{
		Backend: spec.Backend, Rows: spec.Rows, Cols: spec.Cols,
		Temperature: spec.Temperature, Seed: spec.Seed, Sweeps: spec.Sweeps, BurnIn: spec.BurnIn,
	}
	var samples []encode.Sample
	switch {
	case len(spec.Temperatures) > 0:
		cfg.Temperature = 0
		ladder, err := backend.NewBatchLadder(spec.Backend, cfg, spec.Temperatures)
		if err != nil {
			return nil, nil, err
		}
		ens, err := tempering.NewBatch(tempering.Config{
			Temperatures: spec.Temperatures, SwapInterval: spec.SwapInterval,
			Seed: spec.Seed, Workers: spec.Workers,
		}, ladder)
		if err != nil {
			return nil, nil, err
		}
		ens.RunRounds((spec.BurnIn + spec.SwapInterval - 1) / spec.SwapInterval)
		rounds := max(spec.Sweeps/spec.SwapInterval, 1)
		for i := 0; i < rounds; i++ {
			ens.Round()
			ens.Measure()
			cold := ens.Backend(0)
			m := cold.Magnetization()
			samples = append(samples, encode.Sample{Job: jobID, Sweep: (i + 1) * spec.SwapInterval,
				Magnetization: m, AbsMagnetization: math.Abs(m), Energy: cold.Energy()})
		}
		r.Temperature = spec.Temperatures[0]
		encode.Observables(r, ens.Backend(0))
		encode.Tempering(r, ens.Report())
		r.Ops = ens.Counts().Ops
	case spec.Replicas > 1:
		b, err := backend.NewBatch(spec.Backend, cfg, spec.Replicas)
		if err != nil {
			return nil, nil, err
		}
		lanes := b.Lanes()
		absAcc, eAcc := make([]stats.Accumulator, lanes), make([]stats.Accumulator, lanes)
		var absAll stats.Accumulator
		for done := 1; done <= spec.BurnIn+spec.Sweeps; done++ {
			b.Sweep()
			measured := done - spec.BurnIn
			if measured <= 0 || measured%spec.SampleInterval != 0 {
				continue
			}
			ms, es := b.Magnetizations(), b.Energies()
			for lane := 0; lane < lanes; lane++ {
				absM := math.Abs(ms[lane])
				absAcc[lane].Add(absM)
				eAcc[lane].Add(es[lane])
				absAll.Add(absM)
				samples = append(samples, encode.Sample{Job: jobID, Sweep: measured, Lane: lane,
					Magnetization: ms[lane], AbsMagnetization: absM, Energy: es[lane]})
			}
		}
		encode.BatchObservables(r, b, spec.Seed)
		var eAll float64
		for lane := range r.Lanes {
			if absAcc[lane].N() == 0 {
				continue
			}
			r.Lanes[lane].MeanAbsMagnetization = absAcc[lane].Mean()
			r.Lanes[lane].MeanAbsMagnetizationErr = absAcc[lane].StdErr()
			r.Lanes[lane].MeanEnergy = eAcc[lane].Mean()
			r.Lanes[lane].Samples = absAcc[lane].N()
			eAll += eAcc[lane].Mean()
		}
		if absAll.N() > 0 {
			r.MeanAbsMagnetization = absAll.Mean()
			r.MeanAbsMagnetizationErr = absAll.StdErr()
			r.MeanEnergy = eAll / float64(lanes)
			r.Samples = absAll.N()
		}
	default:
		eng, err := backend.New(spec.Backend, cfg)
		if err != nil {
			return nil, nil, err
		}
		var absAcc, eAcc stats.Accumulator
		sweep.Stream(eng, 0, spec.BurnIn, 1, nil)
		sweep.Stream(eng, 0, spec.Sweeps, spec.SampleInterval, func(sm sweep.Sample) {
			absM := math.Abs(sm.Magnetization)
			absAcc.Add(absM)
			eAcc.Add(sm.Energy)
			samples = append(samples, encode.Sample{Job: jobID, Sweep: sm.Sweep,
				Magnetization: sm.Magnetization, AbsMagnetization: absM, Energy: sm.Energy})
		})
		encode.Observables(r, eng)
		if absAcc.N() > 0 {
			r.MeanAbsMagnetization = absAcc.Mean()
			r.MeanAbsMagnetizationErr = absAcc.StdErr()
			r.MeanEnergy = eAcc.Mean()
			r.Samples = absAcc.N()
		}
	}
	return r, samples, nil
}

// layers reads the traced pass: client-side call spans; the daemon's own
// per-job timelines (Job.Trace, exact server-clock stage durations) for queue
// wait and run time; its stage histograms from Stats() for checkpoint and
// stream writes; its counters; and the library rate inside the jobs.
func (s *svc) layers(spans []span, m map[string]float64) error {
	if len(s.ids) == 0 {
		return errors.New("service layers: no job completed")
	}
	var queueMs, runMs []float64
	var runSum, jobSum float64
	for _, id := range s.ids {
		j, err := s.srv.Get(id)
		if err != nil {
			return fmt.Errorf("service layers: %w", err)
		}
		tr := j.Trace()
		queueMs = append(queueMs, tr.QueueWaitMs)
		runMs = append(runMs, tr.RunMs)
		runSum += tr.RunMs
	}
	for _, v := range s.jobMs {
		jobSum += v
	}
	after, before := s.srv.Stats(), s.statsBefore
	m["service.submit_ms_p50"] = median(durationsNamed(spans, "service.submit"))
	m["service.result_ms_p50"] = median(durationsNamed(spans, "service.result"))
	m["service.queue_wait_ms_p50"] = median(queueMs)
	m["service.run_ms_p50"] = median(runMs)
	m["service.run_ms_p95"] = quantile(runMs, 0.95)
	m["service.checkpoint_write_ms_p95"] = after.Latency.CheckpointWrite.P95Ms
	m["service.stream_write_ms_p95"] = after.Latency.StreamWrite.P95Ms
	m["service.run_frac"] = runSum / jobSum
	m["service.flips_per_ns"] = s.flips / s.libNs
	jobs := float64(after.JobsCompleted - before.JobsCompleted)
	m["service.checkpoints_per_job"] = float64(after.CheckpointsWritten-before.CheckpointsWritten) / jobs
	m["service.checkpoint_bytes_per_job"] = float64(after.CheckpointBytes-before.CheckpointBytes) / jobs
	m["service.stream_wakeups_per_sweep"] = float64(after.StreamWakeups-before.StreamWakeups) /
		float64(after.SweepsRun-before.SweepsRun)
	m["service.cache_hits"] = float64(after.JobsCached - before.JobsCached)
	return nil
}
