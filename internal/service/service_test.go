package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/service/encode"
	"tpuising/internal/stats"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
)

// waitDone blocks until the job is terminal or the test times out.
func waitDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	}
	return j.Status()
}

// streamed returns a job's retained samples as the stream renders them.
func streamed(j *Job) []encode.Sample {
	recs, _, _, _ := j.watch()
	out := make([]encode.Sample, len(recs))
	for i, r := range recs {
		out[i] = r.wire(j.ID())
	}
	return out
}

func TestJobSpecNormalize(t *testing.T) {
	spec, err := JobSpec{Backend: "CPU", Rows: 32, Sweeps: 10}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Backend != "checkerboard" || spec.Cols != 32 || spec.SampleInterval != 1 {
		t.Fatalf("normalized spec: %+v", spec)
	}
	if spec.Temperature != ising.CriticalTemperature() {
		t.Fatalf("temperature default = %g, want Tc", spec.Temperature)
	}
	bad := []JobSpec{
		{Backend: "checkerboard", Rows: 0, Sweeps: 1},
		{Backend: "checkerboard", Rows: 8, Sweeps: 0},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, BurnIn: -1},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperature: -2},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, CheckpointInterval: -1},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, SwapInterval: 5},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.0}},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.4, 2.0}},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.0, 2.4}, Temperature: 2.2},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.0, 2.4}, CheckpointInterval: 5},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("bad spec %d (%+v) passed validation", i, s)
		}
	}
}

// TestSpecErrorListsRegistry checks the shared-helper contract: a job spec
// with an unknown backend produces exactly the registry listing the CLI's
// -backend flag error produces.
func TestSpecErrorListsRegistry(t *testing.T) {
	_, err := JobSpec{Backend: "nope", Rows: 8, Sweeps: 1}.Normalize()
	if err == nil {
		t.Fatal("unknown backend passed validation")
	}
	if !strings.Contains(err.Error(), backend.List()) {
		t.Fatalf("spec error %q does not list the registry %q", err, backend.List())
	}
	_, cliErr := backend.Canonical("nope")
	if err.Error() != cliErr.Error() {
		t.Fatalf("spec error %q differs from the -backend flag error %q", err, cliErr)
	}
}

func TestCacheKeyIdentity(t *testing.T) {
	base := JobSpec{Backend: "multispin", Rows: 16, Cols: 64, Temperature: 2.4,
		Sweeps: 100, BurnIn: 10, Seed: 7, SampleInterval: 5}
	norm := func(s JobSpec) JobSpec {
		t.Helper()
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := norm(base).CacheKey()
	// Workers and CheckpointInterval never change a result: same key.
	withWorkers := base
	withWorkers.Workers = 8
	withWorkers.CheckpointInterval = 50
	if norm(withWorkers).CacheKey() != key {
		t.Fatal("workers/checkpoint_interval must not change the cache key")
	}
	// Physics fields do.
	for name, mut := range map[string]func(*JobSpec){
		"seed":        func(s *JobSpec) { s.Seed = 8 },
		"temperature": func(s *JobSpec) { s.Temperature = 2.5 },
		"sweeps":      func(s *JobSpec) { s.Sweeps = 101 },
		"burnin":      func(s *JobSpec) { s.BurnIn = 11 },
		"sample":      func(s *JobSpec) { s.SampleInterval = 10 },
		"rows":        func(s *JobSpec) { s.Rows = 32 },
		"hot":         func(s *JobSpec) { s.Hot = true },
		"backend":     func(s *JobSpec) { s.Backend = "checkerboard"; s.Cols = 16 },
	} {
		changed := base
		mut(&changed)
		if norm(changed).CacheKey() == key {
			t.Errorf("changing %s must change the cache key", name)
		}
	}
}

func TestSubmitRunsJobAndStreamsSamples(t *testing.T) {
	srv, _ := New(Config{Workers: 2})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 16, Sweeps: 40, BurnIn: 4,
		Temperature: 2.5, Seed: 11, SampleInterval: 4}
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	samples := streamed(j)
	if len(samples) != 10 {
		t.Fatalf("streamed %d samples, want 10", len(samples))
	}
	var meanAbs, meanE float64
	for i, sm := range samples {
		if sm.Sweep != (i+1)*4 {
			t.Fatalf("sample %d at sweep %d, want %d", i, sm.Sweep, (i+1)*4)
		}
		if sm.Job != j.ID() {
			t.Fatalf("sample carries job %q, want %q", sm.Job, j.ID())
		}
		meanAbs += sm.AbsMagnetization
		meanE += sm.Energy
	}
	r := st.Result
	if got, want := r.MeanAbsMagnetization, meanAbs/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean |m| = %v, recomputed %v", got, want)
	}
	if got, want := r.MeanEnergy, meanE/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean E = %v, recomputed %v", got, want)
	}
	if r.Samples != 10 || r.Sweeps != 40 || r.BurnIn != 4 || r.Backend != "checkerboard" {
		t.Fatalf("result header: %+v", r)
	}
	if r.Step != uint64(2*(40+4)) {
		t.Fatalf("result step %d, want %d", r.Step, 2*(40+4))
	}
	if st.SweepsDone != 44 || st.TotalSweeps != 44 {
		t.Fatalf("progress: %+v", st)
	}
}

// TestCacheHitSkipsBackend is the cache acceptance test: resubmitting an
// identical spec returns the stored result without stepping any backend
// (asserted via the server's sweep counter), and a changed seed misses.
func TestCacheHitSkipsBackend(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	spec := JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Sweeps: 30,
		Temperature: 2.2, Seed: 5, SampleInterval: 3}
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitDone(t, first)
	ranSweeps := srv.Stats().SweepsRun
	if ranSweeps != 30 {
		t.Fatalf("first job ran %d sweeps, want 30", ranSweeps)
	}

	// Identical spec, different workers/checkpoint knobs: cache hit.
	dup := spec
	dup.Workers = 4
	second, err := srv.Submit(dup)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, second)
	if !st2.Cached {
		t.Fatalf("identical resubmission was not served from cache: %+v", st2)
	}
	if got := srv.Stats(); got.SweepsRun != ranSweeps {
		t.Fatalf("cache hit stepped a backend: sweeps %d -> %d", ranSweeps, got.SweepsRun)
	}
	if srv.Stats().JobsCached != 1 {
		t.Fatalf("jobs_cached = %d, want 1", srv.Stats().JobsCached)
	}
	b1, _ := json.Marshal(st1.Result)
	b2, _ := json.Marshal(st2.Result)
	if string(b1) != string(b2) {
		t.Fatalf("cached result differs:\n%s\n%s", b1, b2)
	}

	// A changed seed is a different simulation: cache miss, backend runs.
	miss := spec
	miss.Seed = 6
	third, err := srv.Submit(miss)
	if err != nil {
		t.Fatal(err)
	}
	st3 := waitDone(t, third)
	if st3.Cached {
		t.Fatal("changed seed must miss the cache")
	}
	if got := srv.Stats().SweepsRun; got != ranSweeps+30 {
		t.Fatalf("cache miss ran %d sweeps total, want %d", got, ranSweeps+30)
	}
}

func TestCacheEviction(t *testing.T) {
	srv, _ := New(Config{Workers: 1, CacheSize: 2})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: 1}
	for seed := uint64(1); seed <= 3; seed++ {
		s := spec
		s.Seed = seed
		j, err := srv.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if got := srv.Stats().CacheEntries; got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	// Seed 1 was evicted (oldest); seed 3 is still cached.
	oldest := spec
	j, _ := srv.Submit(oldest)
	if st := waitDone(t, j); st.Cached {
		t.Fatal("evicted entry served from cache")
	}
	newest := spec
	newest.Seed = 3
	j, _ = srv.Submit(newest)
	if st := waitDone(t, j); !st.Cached {
		t.Fatal("retained entry not served from cache")
	}
}

// TestCheckpointResumeByteIdentical is the checkpoint/resume acceptance
// test, run for checkerboard, multispin and both mesh-sharded engines: a job
// interrupted by a daemon shutdown and resumed by a fresh server over the
// same checkpoint directory produces a result and a sample stream
// byte-identical to an uninterrupted run of the same spec.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	specs := map[string]JobSpec{
		"checkerboard": {Backend: "checkerboard", Rows: 32, Cols: 32, Sweeps: 3000,
			BurnIn: 100, Temperature: 2.3, Seed: 42, SampleInterval: 50},
		"multispin": {Backend: "multispin", Rows: 64, Cols: 128, Sweeps: 20000,
			BurnIn: 500, Temperature: 2.3, Seed: 42, SampleInterval: 500, Workers: 1},
		"sharded": {Backend: "sharded", Rows: 64, Cols: 128, GridR: 2, GridC: 2, Sweeps: 8000,
			BurnIn: 200, Temperature: 2.3, Seed: 42, SampleInterval: 200},
		"sharded-ensemble": {Backend: "sharded-ensemble", Rows: 64, Cols: 128, GridR: 2, GridC: 2,
			Sweeps: 8000, BurnIn: 200, Temperature: 2.3, Seed: 42, SampleInterval: 200},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			// Reference: uninterrupted run (no checkpointing at all).
			ref, _ := New(Config{Workers: 1})
			refJob, err := ref.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			refStatus := waitDone(t, refJob)
			refSamples := streamed(refJob)
			ref.Close()

			// Interrupted run: shut the daemon down mid-job, after at least
			// one periodic checkpoint has been written.
			dir := t.TempDir()
			srvA, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
			jobA, err := srvA.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ckptPath := srvA.checkpointPath(jobA.ID())
			deadline := time.Now().Add(55 * time.Second)
			for {
				if _, err := os.Stat(ckptPath); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no checkpoint appeared: %+v", jobA.Status())
				}
				time.Sleep(time.Millisecond)
			}
			srvA.Close()
			stA := jobA.Status()
			if stA.State != StateQueued {
				t.Fatalf("interrupted job state %q (done before shutdown? raise Sweeps): %+v", stA.State, stA)
			}
			samplesA := streamed(jobA)

			// Fresh daemon over the same directory: the job resumes by ID
			// and finishes.
			srvB, skipped := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
			defer srvB.Close()
			if len(skipped) != 0 {
				t.Fatalf("resume skipped checkpoints: %v", skipped)
			}
			if srvB.Stats().JobsResumed != 1 {
				t.Fatalf("jobs_resumed = %d, want 1", srvB.Stats().JobsResumed)
			}
			jobB, err := srvB.Get(jobA.ID())
			if err != nil {
				t.Fatalf("resumed job lost its ID: %v", err)
			}
			stB := waitDone(t, jobB)
			if stB.State != StateDone {
				t.Fatalf("resumed job: %+v", stB)
			}
			samplesB := streamed(jobB)

			// Observables must be byte-identical once the wall-clock fields
			// (the only nondeterministic ones) are cleared.
			canon := func(r encode.Result) string {
				r.ElapsedSec, r.FlipsPerNs = 0, 0
				blob, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return string(blob)
			}
			if canon(*refStatus.Result) != canon(*stB.Result) {
				t.Fatalf("resumed result differs from uninterrupted:\n%s\n%s",
					canon(*refStatus.Result), canon(*stB.Result))
			}
			// The interrupted stream's samples plus the resumed stream's
			// samples must be exactly the uninterrupted stream.
			joined := append(append([]encode.Sample(nil), samplesA...), samplesB...)
			if len(joined) != len(refSamples) {
				t.Fatalf("joined stream has %d samples, uninterrupted %d (split %d+%d)",
					len(joined), len(refSamples), len(samplesA), len(samplesB))
			}
			for i := range joined {
				got, want := joined[i], refSamples[i]
				got.Job, want.Job = "", ""
				if got != want {
					t.Fatalf("sample %d: resumed %+v, uninterrupted %+v", i, got, want)
				}
			}
			// Completion removes the checkpoint: nothing left to resume.
			if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("checkpoint survived completion: %v", err)
			}
		})
	}
}

func TestCancelRemovesCheckpointAndStops(t *testing.T) {
	dir := t.TempDir()
	srv, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 48, Cols: 48, Sweeps: 500000,
		Temperature: 2.3, Seed: 1, SampleInterval: 100}
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := srv.checkpointPath(j.ID())
	deadline := time.Now().Add(55 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateCanceled {
		t.Fatalf("state %q, want canceled", st.State)
	}
	// The worker has noticed the cancel once another submit can run.
	j2, err := srv.Submit(JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("canceled job left a checkpoint: %v", err)
	}
	if srv.Stats().JobsCanceled != 1 {
		t.Fatalf("jobs_canceled = %d, want 1", srv.Stats().JobsCanceled)
	}
}

func TestQueueFullRejects(t *testing.T) {
	srv, _ := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	long := JobSpec{Backend: "checkerboard", Rows: 64, Cols: 64, Sweeps: 500000,
		Temperature: 2.3, SampleInterval: 1000}
	var ok int
	var sawFull bool
	for seed := uint64(1); seed <= 4; seed++ {
		s := long
		s.Seed = seed
		_, err := srv.Submit(s)
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatalf("submitting 4 long jobs to a depth-1 queue never reported ErrQueueFull (%d accepted)", ok)
	}
}

// TestCheckpointRequestOnUnsupportedBackendFails checks the explicit-error
// path: a spec that asks for checkpoints on a non-snapshottable engine fails
// with a clear message instead of silently losing durability.
func TestCheckpointRequestOnUnsupportedBackendFails(t *testing.T) {
	dir := t.TempDir()
	srv, _ := New(Config{Workers: 1, CheckpointDir: dir})
	defer srv.Close()
	j, err := srv.Submit(JobSpec{Backend: "tpu", Rows: 16, Sweeps: 4, CheckpointInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateFailed || !strings.Contains(st.Error, "Snapshotter") {
		t.Fatalf("expected a snapshot-support failure, got %+v", st)
	}
}

// TestTemperingJobMatchesDirectEnsemble runs a replica-exchange job through
// the service and checks the per-temperature report equals a direct
// tempering run of the same configuration (same seeds, same rounds).
func TestTemperingJobMatchesDirectEnsemble(t *testing.T) {
	spec := JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 20, BurnIn: 10,
		Seed: 3, Temperatures: []float64{2.0, 2.4}, SwapInterval: 5}
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("tempering job: %+v", st)
	}
	r := st.Result
	if len(r.Replicas) != 2 || r.Temperature != 2.0 {
		t.Fatalf("tempering result: %+v", r)
	}

	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := backend.NewLanes(norm.Backend, backendConfig(norm, 0, norm.Seed), norm.Temperatures)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := tempering.NewBatch(tempering.Config{
		Temperatures: norm.Temperatures, SwapInterval: norm.SwapInterval, Seed: norm.Seed,
	}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	ens.RunRounds(2) // burnin 10 / swap 5
	ens.Sample(4)    // sweeps 20 / swap 5
	rep := ens.Report()
	for i, rr := range rep.Replicas {
		got := r.Replicas[i]
		if got.AbsMagnetization != rr.AbsMagnetization || got.Energy != rr.Energy ||
			got.Binder != rr.Binder || got.Samples != rr.Samples {
			t.Fatalf("replica %d: service %+v, direct %+v", i, got, rr)
		}
	}
	if r.RoundTrips != rep.RoundTrips || r.SwapAcceptance != rep.Acceptance() {
		t.Fatalf("swap stats: service (%d, %g), direct (%d, %g)",
			r.RoundTrips, r.SwapAcceptance, rep.RoundTrips, rep.Acceptance())
	}
}

// TestJobHistoryPruning checks that terminal jobs are evicted oldest-first
// beyond Config.JobHistory while their results stay reachable via the cache.
func TestJobHistoryPruning(t *testing.T) {
	srv, _ := New(Config{Workers: 1, JobHistory: 2})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2}
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		s := spec
		s.Seed = seed
		j, err := srv.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if got := len(srv.Jobs()); got != 2 {
		t.Fatalf("retained %d jobs, want 2", got)
	}
	if _, err := srv.Get(ids[0]); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("oldest job should answer expired, got %v", err)
	}
	if _, err := srv.Get(ids[3]); err != nil {
		t.Fatalf("newest job should be retained: %v", err)
	}
	// The evicted job's result is still one cache hit away.
	first := spec
	first.Seed = 1
	j, err := srv.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); !st.Cached {
		t.Fatal("evicted job's result should be served from the cache")
	}
}

// TestResumeBurstBeyondQueueDepth checks that New never blocks on a restart
// burst: a checkpoint directory holding more jobs than QueueDepth must
// resume them all.
func TestResumeBurstBeyondQueueDepth(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft three consistent checkpoints the way the daemon writes them.
	for i := 1; i <= 3; i++ {
		spec, err := (JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 40,
			Temperature: 2.5, Seed: uint64(i)}).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := backend.New(spec.Backend, backendConfig(spec, spec.Temperature, spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		var absAcc, eAcc stats.Accumulator
		done := sweep.Stream(eng.(sweep.EnergyChain), 0, 10, spec.SampleInterval, func(sm sweep.Sample) {
			absAcc.Add(math.Abs(sm.Magnetization))
			eAcc.Add(sm.Energy)
		})
		snap, err := eng.(ising.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("job-%06d", i)
		blob, err := encodeCheckpoint(&checkpointState{
			Job: id, Spec: spec, DoneSweeps: done,
			AbsM: absAcc.State(), Energy: eAcc.State(),
			Snapshot: ising.EncodeSnapshot(snap),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+checkpointExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	srv, skipped := New(Config{Workers: 1, QueueDepth: 1, CheckpointDir: dir, CheckpointInterval: 20})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("New blocked for %v on the resume burst", elapsed)
	}
	defer srv.Close()
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if got := srv.Stats().JobsResumed; got != 3 {
		t.Fatalf("jobs_resumed = %d, want 3", got)
	}
	for i := 1; i <= 3; i++ {
		j, err := srv.Get(fmt.Sprintf("job-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, j); st.State != StateDone || st.SweepsDone != 40 {
			t.Fatalf("resumed job %d: %+v", i, st)
		}
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	srv.Close()
	if _, err := srv.Submit(JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}
