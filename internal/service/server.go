package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpuising/internal/hist"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/service/encode"
	"tpuising/internal/stats"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
)

// Config describes a simulation server.
type Config struct {
	// Workers is the worker-pool size: how many jobs sweep concurrently
	// (default 2). Each worker runs one job at a time; a job's own engine
	// parallelism is the spec's Workers field.
	Workers int
	// QueueDepth bounds the jobs waiting for a worker (default 64); Submit
	// fails with ErrQueueFull beyond it, so a traffic burst degrades into
	// fast rejections instead of unbounded memory growth.
	QueueDepth int
	// CheckpointDir is where job checkpoints live ("" disables
	// checkpointing). A server constructed over a directory with leftover
	// checkpoints resumes those jobs immediately.
	CheckpointDir string
	// CheckpointInterval is the default number of sweeps between checkpoints
	// for engines that implement ising.Snapshotter (0 = only jobs that set
	// their own checkpoint_interval are checkpointed).
	CheckpointInterval int
	// CacheSize bounds the result cache entries (default 256, least recently
	// used evicted first; negative disables caching).
	CacheSize int
	// CacheBytes bounds the result cache's total encoded-result bytes
	// (default 32 MiB; negative removes the byte bound). Whichever of
	// CacheSize and CacheBytes is hit first evicts, LRU order, counted in
	// the cache_evictions stat.
	CacheBytes int64
	// CacheTTL expires cache entries by age (0 = never): an entry older than
	// it is a miss and is evicted on sight.
	CacheTTL time.Duration
	// JobHistory bounds the retained *terminal* jobs (default 1024, evicted
	// oldest first; negative retains forever). Active jobs are never
	// evicted. An evicted job's status is gone (GET answers "expired", 410),
	// but its result stays reachable through the cache by resubmitting its
	// spec.
	JobHistory int
	// JobTTL evicts terminal jobs from the history by age (0 = only the
	// JobHistory count bound applies): a job finished longer than JobTTL ago
	// is evicted even when the history is not full, so an idle daemon sheds
	// its job table too.
	JobTTL time.Duration
	// MaxQueuedPerClient and MaxRunningPerClient are the per-client quotas,
	// keyed by JobSpec.Client (empty Client = one shared anonymous bucket).
	// MaxRunningPerClient caps how many of one client's jobs occupy workers
	// at once — jobs beyond it stay queued until one finishes.
	// MaxQueuedPerClient (0 = no quota) caps the client's backlog: a
	// submission is rejected with ErrQuotaExceeded once the client has
	// MaxQueuedPerClient+MaxRunningPerClient non-terminal jobs in the
	// scheduler. The admission count is queued+running TOGETHER on purpose:
	// the queued/running split depends on worker-drain timing, so counting
	// them jointly is what makes admission decisions deterministic for any
	// worker count — the quota determinism contract, asserted by tests.
	MaxQueuedPerClient  int
	MaxRunningPerClient int
	// SampleHistory bounds the retained samples per job (default 65536).
	// Samples beyond it are counted, not stored; a stream of such a job ends
	// with exactly one Truncated bookkeeping line.
	SampleHistory int
	// CheckpointFS is the filesystem all checkpoint I/O goes through — writes
	// AND the startup recovery scan (nil = the real one). Tests inject
	// failing filesystems to exercise the full-disk paths and corrupt-read
	// recovery.
	CheckpointFS CheckpointFS
	// Now is the server's clock (nil = time.Now). Tests inject fake clocks
	// to drive the TTL and skew paths deterministically. The server clamps
	// it monotonic: if Now jumps backwards, server time holds still until
	// the wall clock catches up, so TTLs pause rather than rewind.
	Now func() time.Time
	// Logger receives the server's structured log (nil = discard). The
	// scheduler logs through job-scoped children carrying the job ID, client,
	// backend and priority attrs.
	Logger *slog.Logger
	// Version is the daemon build version reported by the isingd_build_info
	// metric ("" = "dev").
	Version string
}

func (c Config) withDefaults() Config {
	out := c
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.CacheSize == 0 {
		out.CacheSize = 256
	}
	if out.CacheBytes == 0 {
		out.CacheBytes = 32 << 20
	}
	if out.JobHistory == 0 {
		out.JobHistory = 1024
	}
	if out.SampleHistory <= 0 {
		out.SampleHistory = maxSampleHistory
	}
	if out.CheckpointFS == nil {
		out.CheckpointFS = osFS{}
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	if out.Logger == nil {
		out.Logger = nopLogger()
	}
	if out.Version == "" {
		out.Version = "dev"
	}
	return out
}

// Sentinel errors of the submission path.
var (
	// ErrQueueFull means the job queue is at QueueDepth.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrQuotaExceeded means the submitting client is at its per-client
	// quota (Config.MaxQueuedPerClient); the HTTP layer maps it to 429.
	ErrQuotaExceeded = errors.New("service: client quota exceeded")
	// ErrClosed means the server is shutting down.
	ErrClosed = errors.New("service: server is closed")
	// ErrUnknownJob means no job ever had the requested ID.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobExpired means the job existed but its status was evicted by the
	// history retention (Config.JobHistory / JobTTL) — distinguished from
	// ErrUnknownJob so a client can tell "poll less lazily" (410) from
	// "wrong ID" (404). The job's result may still be one cache hit away.
	ErrJobExpired = errors.New("service: job status expired (evicted by history retention)")
	// ErrJobCorrupt means the job's checkpoint failed validation during the
	// startup recovery scan and was quarantined: the job is lost to
	// corruption. Deliberately distinct from ErrJobExpired — "the daemon shed
	// old state on schedule" and "the disk ate your job" demand different
	// reactions — though both answer 410: the ID is gone for good, and
	// resubmitting the spec recomputes the result deterministically.
	ErrJobCorrupt = errors.New("service: job lost to checkpoint corruption (file quarantined)")
)

// Cancellation causes distinguishing a client cancel from a daemon shutdown.
var (
	errCanceled = errors.New("service: job canceled")
	errClosing  = errors.New("service: server closing")
)

// maxChunk bounds the sweeps a worker runs between cancellation checks.
const maxChunk = 256

// Server is a long-running simulation service over the backend registry: a
// bounded worker pool draining a job queue, a deduplicating result cache
// keyed by the job spec, and a checkpoint store that lets a restarted server
// resume interrupted jobs bit-identically. cmd/isingd serves its Handler
// over HTTP; tests and examples drive it in-process.
type Server struct {
	cfg    Config
	logger *slog.Logger

	// started is the server-clock construction stamp behind
	// isingd_uptime_seconds.
	started time.Time

	// The server-side stage latency histograms, exposed as Prometheus
	// histogram types on /metrics and summarized in /v1/stats: where a job's
	// wall-clock time goes — waiting for a worker, sweeping, fsyncing
	// checkpoints, or writing stream lines.
	queueWaitH       *hist.Histogram
	runH             *hist.Histogram
	checkpointWriteH *hist.Histogram
	streamWriteH     *hist.Histogram

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*Job
	order  []string // submission order, for listing
	cache  *resultCache

	// queue holds the jobs waiting for a worker, in submission order, guarded
	// by mu; workers wait on queueCond. A slice (not a channel) so Cancel can
	// remove a queued job immediately — a canceled job must free its queue
	// slot instead of pinning it until a worker drains it, or cancel-heavy
	// traffic makes Submit return ErrQueueFull while workers sit idle — and
	// so the dequeue can scan for the highest-priority job whose client is
	// under its running cap instead of popping strictly FIFO.
	queue     []*Job
	queueCond *sync.Cond // signalled on enqueue, on running-slot release and on Close

	// clientQueued and clientRunning count each client's jobs waiting in the
	// queue and occupying workers, guarded by mu. Their sum is the quota
	// admission count (see Config.MaxQueuedPerClient); clientRunning alone
	// gates the priority dequeue. Zero entries are deleted so the maps stay
	// proportional to the set of active clients.
	clientQueued  map[string]int
	clientRunning map[string]int

	// corruptJobs holds the IDs of jobs whose checkpoint files failed the
	// startup scan and were quarantined, guarded by mu. Get answers
	// ErrJobCorrupt for them — the corruption taxonomy, distinct from TTL
	// eviction. Bounded by the number of corrupt files found at startup.
	corruptJobs map[string]bool

	// nowFloor is the monotonic clock floor in Unix nanoseconds: the largest
	// timestamp now() has returned (or resumed from a checkpoint's persisted
	// admission time). When Config.Now jumps backwards — NTP step, a restart
	// on a skewed host — now() holds at the floor instead of following, so
	// ages never go negative, expired state is never revived, and TTLs
	// simply pause until the wall clock catches up.
	nowFloor atomic.Int64

	closing chan struct{} // closed by Close; ends long-lived streams and the janitor
	wg      sync.WaitGroup

	// testHookRun, when set by a test, runs on the worker goroutine right
	// before a job executes — the injection point for induced worker panics.
	testHookRun func(*Job)

	jobsSubmitted       atomic.Int64
	jobsCompleted       atomic.Int64
	jobsFailed          atomic.Int64
	jobsCanceled        atomic.Int64
	jobsCached          atomic.Int64
	jobsResumed         atomic.Int64
	jobsEvicted         atomic.Int64
	sweepsRun           atomic.Int64
	checkpointsWritten  atomic.Int64
	checkpointBytes     atomic.Int64
	checkpointFailures  atomic.Int64
	checkpointCorrupt   atomic.Int64
	checkpointTmpSwept  atomic.Int64
	streamWakeups       atomic.Int64
	quotaRejections     atomic.Int64
	queueFullRejections atomic.Int64
	workerPanics        atomic.Int64
}

// now is the server's clock: Config.Now clamped to never run backwards (see
// nowFloor). Every time-accounting path — TTLs, admission stamps, janitor
// sweeps — reads it instead of Config.Now directly.
func (s *Server) now() time.Time {
	t := s.cfg.Now()
	n := t.UnixNano()
	for {
		prev := s.nowFloor.Load()
		if n <= prev {
			return time.Unix(0, prev)
		}
		if s.nowFloor.CompareAndSwap(prev, n) {
			return t
		}
	}
}

// advanceNowFloor raises the monotonic clock floor to at least the given
// Unix-nanosecond timestamp (no-op for older ones). Resume calls it with
// persisted admission times so clock skew across a restart cannot rewind
// the daemon behind state it already holds.
func (s *Server) advanceNowFloor(unixNano int64) {
	for {
		prev := s.nowFloor.Load()
		if unixNano <= prev || s.nowFloor.CompareAndSwap(prev, unixNano) {
			return
		}
	}
}

// Stats is the server's counter snapshot (GET /v1/stats). SweepsRun counts
// whole-lattice updates actually executed by workers — a cache hit does not
// move it, which is exactly what the cache tests assert. StreamWakeups
// counts iterations of open NDJSON stream loops: how often any subscriber
// woke to look for new samples. Dividing its delta by the SweepsRun delta is
// the load harness's wake-storm gauge — with the sample-only notification
// channel it stays near samples-per-sweep instead of subscribers-per-sweep.
type Stats struct {
	JobsSubmitted      int64 `json:"jobs_submitted"`
	JobsCompleted      int64 `json:"jobs_completed"`
	JobsFailed         int64 `json:"jobs_failed"`
	JobsCanceled       int64 `json:"jobs_canceled"`
	JobsCached         int64 `json:"jobs_cached"` // cache hits: submissions served without sweeping
	JobsResumed        int64 `json:"jobs_resumed"`
	JobsEvicted        int64 `json:"jobs_evicted"` // terminal jobs dropped by JobHistory/JobTTL
	SweepsRun          int64 `json:"sweeps_run"`
	CheckpointsWritten int64 `json:"checkpoints_written"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// CheckpointCorrupt counts checkpoint files quarantined by the startup
	// scan (unreadable, torn or checksum-failing); CheckpointTmpSwept counts
	// stale atomic-write temp files swept by it.
	CheckpointCorrupt  int64 `json:"checkpoint_corrupt"`
	CheckpointTmpSwept int64 `json:"checkpoint_tmp_swept"`
	StreamWakeups      int64 `json:"stream_wakeups"`
	// CacheMisses and CacheEvictions complete the cache picture next to the
	// JobsCached hit counter; CacheBytes is the current encoded size of every
	// retained result — provably bounded by Config.CacheBytes.
	CacheMisses         int64 `json:"cache_misses"`
	CacheEvictions      int64 `json:"cache_evictions"`
	CacheBytes          int64 `json:"cache_bytes"`
	QuotaRejections     int64 `json:"quota_rejections"`
	QueueFullRejections int64 `json:"queue_full_rejections"`
	WorkerPanics        int64 `json:"worker_panics"`
	CacheEntries        int   `json:"cache_entries"`
	Queued              int   `json:"queued"`
	Running             int   `json:"running"`
	Workers             int   `json:"workers"`
	// UptimeSeconds is the server-clock age of this Server.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Latency is the aggregate stage-duration summary: the same four
	// histograms /metrics exposes, rendered as quantiles.
	Latency StageLatencies `json:"latency"`
}

// StageLatencies summarizes the server-side stage histograms for /v1/stats:
// queue wait (enqueue → worker admission), run (worker occupancy per job),
// checkpoint write (intent records and snapshots, through fsync+rename), and
// stream write (one NDJSON flush batch per observation).
type StageLatencies struct {
	QueueWait       hist.LatencySummary `json:"queue_wait"`
	Run             hist.LatencySummary `json:"run"`
	CheckpointWrite hist.LatencySummary `json:"checkpoint_write"`
	StreamWrite     hist.LatencySummary `json:"stream_write"`
}

// New starts a server: Workers goroutines draining the queue. If the
// checkpoint directory holds checkpoints from a previous daemon, their jobs
// are re-queued immediately (keeping their IDs) and continue from their
// snapshots. Skipped (unreadable) checkpoint files are returned as a
// non-fatal second value.
func New(cfg Config) (*Server, []error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:              cfg,
		logger:           cfg.Logger,
		queueWaitH:       hist.New(),
		runH:             hist.New(),
		checkpointWriteH: hist.New(),
		streamWriteH:     hist.New(),
		jobs:             make(map[string]*Job),
		cache:            newResultCache(cfg.CacheSize, cfg.CacheBytes, cfg.CacheTTL),
		clientQueued:     make(map[string]int),
		clientRunning:    make(map[string]int),
		corruptJobs:      make(map[string]bool),
		closing:          make(chan struct{}),
	}
	s.started = s.now()
	s.queueCond = sync.NewCond(&s.mu)
	var states []*checkpointState
	var skipped []error
	if s.cfg.CheckpointDir != "" {
		states, skipped = s.scanCheckpoints()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.nextQueued()
				if !ok {
					return
				}
				s.runProtected(j)
				s.releaseRunning(j)
			}
		}()
	}
	if s.cfg.JobTTL > 0 || s.cfg.CacheTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	for _, cs := range states {
		if err := s.resume(cs); err != nil {
			skipped = append(skipped, err)
		}
	}
	return s, skipped
}

// janitor periodically applies the age bounds (JobTTL, CacheTTL) so an idle
// daemon still sheds expired history and cache entries; the terminal-event
// and lookup paths apply them lazily as well.
func (s *Server) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-ticker.C:
			s.pruneJobs()
			s.mu.Lock()
			s.cache.pruneExpired(s.now())
			s.mu.Unlock()
		}
	}
}

// Submit validates and schedules a job. A spec whose cache key matches a
// completed job returns immediately as a done job carrying the cached result
// — no backend is constructed or stepped (a cache hit also bypasses the
// queue, so it costs no quota). The returned job is retrievable by ID until
// the history retention evicts it. When the server has a checkpoint
// directory, every accepted job writes a durable intent record before the
// submission returns, so a daemon restart loses no accepted job — jobs
// without an engine snapshot simply rerun from sweep zero, which the
// deterministic engines turn into the identical result.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	j := newJob(s.newIDLocked(), norm, s.cfg.SampleHistory, s.now)
	j.addEvent(EventSubmitted, 0)
	if cached, ok := s.cache.get(j.key, s.now()); ok {
		j.addEvent(EventCached, 0)
		s.addJobLocked(j)
		s.mu.Unlock()
		s.jobsSubmitted.Add(1)
		s.jobsCached.Add(1)
		j.finish(cached, true)
		s.jobLogger(j).Debug("cache hit")
		s.pruneJobs()
		return j, nil
	}
	if q := s.cfg.MaxQueuedPerClient; q > 0 {
		c := norm.Client
		if s.clientQueued[c]+s.clientRunning[c] >= q+max(s.cfg.MaxRunningPerClient, 0) {
			s.mu.Unlock()
			s.quotaRejections.Add(1)
			return nil, fmt.Errorf("%w: client %q already has %d jobs queued or running",
				ErrQuotaExceeded, c, q+max(s.cfg.MaxRunningPerClient, 0))
		}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.queueFullRejections.Add(1)
		return nil, ErrQueueFull
	}
	// Durable admission: the job takes its queue slot now (so capacity and
	// quota stay exact) but stays held — invisible to the dequeue — until
	// its intent record is on disk. Without the hold a fast job could run,
	// even finish, before it was ever durable.
	j.held = s.cfg.CheckpointDir != ""
	j.addEvent(EventQueued, 0)
	s.queue = append(s.queue, j)
	s.clientQueued[norm.Client]++
	s.addJobLocked(j)
	s.queueCond.Signal()
	s.mu.Unlock()
	s.jobsSubmitted.Add(1)
	s.jobLogger(j).Debug("job submitted")
	if s.cfg.CheckpointDir != "" {
		// A failure is loud — the job the daemon cannot make durable fails
		// immediately instead of silently losing upgrade coverage — and the
		// queue slot is freed the same way a cancel frees it.
		if err := s.writeSpecCheckpoint(j); err != nil {
			s.dequeue(j)
			s.fail(j, fmt.Errorf("service: recording job %s for restart durability: %w", j.id, err))
			return j, nil
		}
		s.mu.Lock()
		j.held = false
		s.queueCond.Signal()
		s.mu.Unlock()
	}
	return j, nil
}

// resume re-queues a checkpointed job from a previous daemon run. It appends
// past the QueueDepth bound (and the per-client quotas) on purpose: a daemon
// must never drop (or stall on) a checkpointed job during startup, however
// large the restart burst. A checkpoint without an engine snapshot — the
// durable intent record every accepted job writes — restarts the job from
// sweep zero; the deterministic engines make the rerun byte-identical.
func (s *Server) resume(cs *checkpointState) error {
	s.mu.Lock()
	if _, exists := s.jobs[cs.Job]; exists {
		s.mu.Unlock()
		return fmt.Errorf("service: duplicate checkpoint for job %s", cs.Job)
	}
	j := newJob(cs.Job, cs.Spec, s.cfg.SampleHistory, s.now)
	// Keep the original admission stamp across the restart and fold it into
	// the clock floor: a wall clock that went backwards over the restart must
	// not make resumed state look younger than work admitted after it.
	j.admittedAt = admittedAtOrNow(cs.AdmittedAt, s.now)
	s.advanceNowFloor(cs.AdmittedAt)
	if len(cs.Snapshot) > 0 {
		j.resume = cs
		j.sweepsDone = cs.DoneSweeps
	}
	// The resumed timeline opens with the ORIGINAL admission stamp: the trace
	// shows when the job first entered the system, then that this daemon
	// picked it back up at its checkpointed progress.
	j.mu.Lock()
	j.addEventAtLocked(EventSubmitted, j.admittedAt, 0)
	j.addEventLocked(EventResumed, cs.DoneSweeps)
	j.addEventLocked(EventQueued, 0)
	j.mu.Unlock()
	s.queue = append(s.queue, j)
	s.clientQueued[cs.Spec.Client]++
	s.addJobLocked(j)
	s.advanceIDLocked(cs.Job)
	s.queueCond.Signal()
	s.mu.Unlock()
	s.jobsResumed.Add(1)
	s.jobLogger(j).Info("job resumed from checkpoint", "done_sweeps", cs.DoneSweeps)
	return nil
}

// nextQueued blocks until a runnable job is queued (returning it) or the
// server is closed (returning false). "Runnable" folds in the scheduling
// policy: the highest-priority queued job, FIFO within a priority, whose
// client is under its MaxRunningPerClient cap. A queue holding only
// over-cap clients parks the worker until a running slot frees. Jobs left
// queued at close stay queued — their checkpoints, if any, are the
// durability mechanism, exactly as before.
func (s *Server) nextQueued() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, false
		}
		if i := s.eligibleLocked(); i >= 0 {
			j := s.queue[i]
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.dropClientQueuedLocked(j.spec.Client)
			s.clientRunning[j.spec.Client]++
			at := s.now()
			j.mu.Lock()
			j.addEventAtLocked(EventAdmitted, at, 0)
			wait := at.Sub(j.enqueuedAt)
			j.mu.Unlock()
			s.queueWaitH.Observe(wait)
			s.jobLogger(j).Debug("job admitted", "queue_wait_ms", float64(wait)/float64(time.Millisecond))
			return j, true
		}
		s.queueCond.Wait()
	}
}

// eligibleLocked returns the queue index of the job to run next — the first
// (oldest) job of the highest priority whose client is under its running cap
// — or -1 when nothing is runnable; the caller holds s.mu.
func (s *Server) eligibleLocked() int {
	best := -1
	for i, j := range s.queue {
		if j.held {
			continue // durable-admission write still in flight
		}
		if s.cfg.MaxRunningPerClient > 0 && s.clientRunning[j.spec.Client] >= s.cfg.MaxRunningPerClient {
			continue
		}
		if best < 0 || j.spec.Priority > s.queue[best].spec.Priority {
			best = i
		}
	}
	return best
}

// releaseRunning returns a worker's running slot after a job ends (or is
// parked for the next daemon at shutdown) and wakes the workers: a queued
// job of the same client may have been waiting on the running cap.
func (s *Server) releaseRunning(j *Job) {
	s.mu.Lock()
	c := j.spec.Client
	if s.clientRunning[c]--; s.clientRunning[c] <= 0 {
		delete(s.clientRunning, c)
	}
	s.queueCond.Broadcast()
	s.mu.Unlock()
}

// dropClientQueuedLocked decrements a client's queued count, deleting the
// zero entry; the caller holds s.mu.
func (s *Server) dropClientQueuedLocked(client string) {
	if s.clientQueued[client]--; s.clientQueued[client] <= 0 {
		delete(s.clientQueued, client)
	}
}

// dequeue removes a job from the waiting queue if it is still there,
// reporting whether it was. Cancel uses it to free the job's queue slot
// (and its quota share) immediately instead of leaving a dead job pinning
// queue capacity.
func (s *Server) dequeue(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.dropClientQueuedLocked(j.spec.Client)
			return true
		}
	}
	return false
}

// Get returns the job with the given ID. A miss distinguishes a job that was
// evicted by the history retention (ErrJobExpired — the ID is within the
// range this server has issued) from one that never existed (ErrUnknownJob),
// so a lazy poller gets "your job finished and aged out; resubmit the spec
// for a cache hit" instead of a bare not-found.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if s.corruptJobs[id] {
			return nil, fmt.Errorf("%w: %s", ErrJobCorrupt, id)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil &&
			strings.HasPrefix(id, "job-") && n >= 1 && n <= s.nextID {
			return nil, fmt.Errorf("%w: %s", ErrJobExpired, id)
		}
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel stops a job: a queued job never runs (and releases its queue slot
// immediately, so cancel-heavy traffic cannot fill the queue with dead
// jobs), a running job stops at its next chunk boundary, and the job's
// checkpoint (if any) is removed. Canceling a terminal job is a no-op.
func (s *Server) Cancel(id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	j.cancel(errCanceled)
	s.dequeue(j)
	if j.setState(StateCanceled, errCanceled) {
		s.jobsCanceled.Add(1)
		s.removeCheckpoint(j)
		s.jobLogger(j).Info("job canceled")
		s.pruneJobs()
	}
	return j, nil
}

// Stats returns the server's counter snapshot.
func (s *Server) Stats() Stats {
	st := Stats{
		JobsSubmitted:       s.jobsSubmitted.Load(),
		JobsCompleted:       s.jobsCompleted.Load(),
		JobsFailed:          s.jobsFailed.Load(),
		JobsCanceled:        s.jobsCanceled.Load(),
		JobsCached:          s.jobsCached.Load(),
		JobsResumed:         s.jobsResumed.Load(),
		JobsEvicted:         s.jobsEvicted.Load(),
		SweepsRun:           s.sweepsRun.Load(),
		CheckpointsWritten:  s.checkpointsWritten.Load(),
		CheckpointBytes:     s.checkpointBytes.Load(),
		CheckpointFailures:  s.checkpointFailures.Load(),
		CheckpointCorrupt:   s.checkpointCorrupt.Load(),
		CheckpointTmpSwept:  s.checkpointTmpSwept.Load(),
		StreamWakeups:       s.streamWakeups.Load(),
		QuotaRejections:     s.quotaRejections.Load(),
		QueueFullRejections: s.queueFullRejections.Load(),
		WorkerPanics:        s.workerPanics.Load(),
		Workers:             s.cfg.Workers,
		UptimeSeconds:       s.now().Sub(s.started).Seconds(),
		Latency: StageLatencies{
			QueueWait:       s.queueWaitH.Summary(),
			Run:             s.runH.Summary(),
			CheckpointWrite: s.checkpointWriteH.Summary(),
			StreamWrite:     s.streamWriteH.Summary(),
		},
	}
	s.mu.Lock()
	st.CacheEntries = s.cache.len()
	st.CacheBytes = s.cache.size()
	st.CacheMisses = s.cache.misses
	st.CacheEvictions = s.cache.evictions
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return st
}

// Close shuts the server down: no new submissions, every running
// checkpointable job writes a final checkpoint (so the next daemon resumes
// it), and the workers drain. Jobs that cannot checkpoint are lost at
// shutdown, exactly like a crash — the checkpoint store, not the shutdown
// path, is the durability mechanism.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.closing)
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.queueCond.Broadcast()
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel(errClosing)
	}
	s.wg.Wait()
}

// newIDLocked allocates the next job ID; the caller holds s.mu.
func (s *Server) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("job-%06d", s.nextID)
}

// advanceIDLocked moves the ID counter past a resumed job's ID so fresh jobs
// never collide with it; the caller holds s.mu.
func (s *Server) advanceIDLocked(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// addJobLocked registers a job; the caller holds s.mu.
func (s *Server) addJobLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// pruneJobs evicts terminal jobs past the retention bounds — older than
// Config.JobTTL (when set), then the oldest beyond the Config.JobHistory
// count — so a long-running daemon's job table stays bounded no matter how
// much traffic it serves and an idle daemon sheds its table by age too.
// Active (queued/running) jobs are never evicted; an evicted job's result
// remains reachable through the cache, and its ID answers "expired" (410),
// not "unknown" (404). Every eviction moves the jobs_evicted counter.
func (s *Server) pruneJobs() {
	limit := s.cfg.JobHistory
	ttl := s.cfg.JobTTL
	if limit < 0 && ttl <= 0 {
		return
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	expired := func(j *Job) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return ttl > 0 && j.state.terminal() && now.Sub(j.finishedAt) > ttl
	}
	terminal := 0
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if j.state.terminal() {
			terminal++
		}
		j.mu.Unlock()
	}
	overCount := 0
	if limit >= 0 && terminal > limit {
		overCount = terminal - limit
	}
	kept := s.order[:0]
	evicted := 0
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		dead := j.state.terminal()
		j.mu.Unlock()
		if dead && (overCount > 0 || expired(j)) {
			delete(s.jobs, id)
			evicted++
			if overCount > 0 {
				overCount--
			}
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	if evicted > 0 {
		s.jobsEvicted.Add(int64(evicted))
	}
}

// storeResult caches a completed result (the LRU applies its own bounds).
func (s *Server) storeResult(key string, r *encode.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.put(key, r, s.now())
}

// runProtected executes one job, converting a worker panic — a backend bug,
// an induced chaos-test fault — into a loudly failed job instead of a dead
// daemon: the worker goroutine survives, the panic is counted, and the job
// reports the panic value as its error.
func (s *Server) runProtected(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.workerPanics.Add(1)
			s.jobLogger(j).Error("worker panic", "panic", fmt.Sprint(r))
			s.fail(j, fmt.Errorf("service: job %s panicked: %v", j.id, r))
		}
	}()
	if s.testHookRun != nil {
		s.testHookRun(j)
	}
	s.run(j)
}

// run executes one job on a worker goroutine.
func (s *Server) run(j *Job) {
	if j.ctx.Err() != nil {
		// Canceled before it started. A shutdown leaves the job queued (its
		// checkpoint, if any, survives for the next daemon); a client cancel
		// has already marked it canceled.
		return
	}
	if !j.setState(StateRunning, nil) {
		return
	}
	if len(j.spec.Temperatures) > 0 {
		s.runTempering(j)
		return
	}
	if j.spec.Replicas > 1 {
		s.runBatch(j)
		return
	}
	s.runSingle(j)
}

// observeRun folds the job's worker occupancy into the run-duration
// histogram (a job that never reached a worker observes nothing) and returns
// it for the log line.
func (s *Server) observeRun(j *Job) time.Duration {
	started := j.runStarted()
	if started.IsZero() {
		return 0
	}
	d := s.now().Sub(started)
	s.runH.Observe(d)
	return d
}

// fail marks the job failed.
func (s *Server) fail(j *Job, err error) {
	s.removeCheckpoint(j)
	if j.setState(StateFailed, err) {
		s.jobsFailed.Add(1)
		d := s.observeRun(j)
		s.jobLogger(j).Warn("job failed", "error", err, "run_ms", float64(d)/float64(time.Millisecond))
	}
	s.pruneJobs()
}

// complete stores the result in the cache and marks the job done. The result
// is cached even if a cancel won the race to the job's terminal state — it
// is a fully computed, valid result.
func (s *Server) complete(j *Job, r *encode.Result) {
	s.storeResult(j.key, r)
	s.removeCheckpoint(j)
	if j.finish(r, false) {
		s.jobsCompleted.Add(1)
		d := s.observeRun(j)
		s.jobLogger(j).Info("job completed", "run_ms", float64(d)/float64(time.Millisecond),
			"sweeps", j.spec.totalSweeps())
	}
	s.pruneJobs()
}

// interrupted handles a cancellation noticed mid-run. On shutdown a
// checkpointable job writes a final checkpoint at the exact sweep it
// stopped, so the next daemon resumes it bit-identically; a client cancel
// discards the job.
func (s *Server) interrupted(j *Job, snapper ising.Snapshotter, canCkpt bool, done int, absM, energy stats.AccumulatorState) {
	if context.Cause(j.ctx) == errClosing {
		if canCkpt {
			if err := s.writeCheckpoint(j, snapper, done, absM, energy); err == nil {
				j.setState(StateQueued, nil)
				return
			}
		}
		if s.cfg.CheckpointDir != "" {
			// No engine snapshot (or the final write failed), but the job's
			// durable intent record from Submit is still on disk: the next
			// daemon reruns it from sweep zero, byte-identically. Park it
			// queued rather than canceling it.
			j.setState(StateQueued, nil)
			return
		}
		if j.setState(StateCanceled, errClosing) {
			s.jobsCanceled.Add(1)
		}
		return
	}
	// Client cancel: Cancel already set the state; make sure no checkpoint
	// survives (the worker may have written one after Cancel removed it).
	s.removeCheckpoint(j)
	if j.setState(StateCanceled, errCanceled) {
		s.jobsCanceled.Add(1)
	}
}

// backendConfig maps a job spec onto the registry's engine configuration.
func backendConfig(spec JobSpec, temperature float64, seed uint64) backend.Config {
	return backend.Config{
		Rows: spec.Rows, Cols: spec.Cols, Temperature: temperature,
		Seed: seed, Workers: spec.Workers,
		GridR: spec.GridR, GridC: spec.GridC, Hot: spec.Hot,
	}
}

// runSingle runs a single-chain job: burn-in, then measured sweeps with
// samples streamed every SampleInterval, checkpointing every
// CheckpointInterval sweeps when enabled.
func (s *Server) runSingle(j *Job) {
	spec := j.spec
	eng, err := backend.New(spec.Backend, backendConfig(spec, spec.Temperature, spec.Seed))
	if err != nil {
		s.fail(j, err)
		return
	}
	snapper, canSnap := eng.(ising.Snapshotter)
	ckptEvery := spec.CheckpointInterval
	if ckptEvery == 0 {
		ckptEvery = s.cfg.CheckpointInterval
	}
	if spec.CheckpointInterval > 0 {
		if !canSnap {
			s.fail(j, fmt.Errorf("service: backend %q does not support checkpointing (no ising.Snapshotter); pick a snapshottable engine or drop checkpoint_interval", spec.Backend))
			return
		}
		if s.cfg.CheckpointDir == "" {
			s.fail(j, fmt.Errorf("service: job asks for checkpoints but the server has no checkpoint directory"))
			return
		}
	}
	canCkpt := canSnap && s.cfg.CheckpointDir != "" && ckptEvery > 0

	var absAcc, eAcc stats.Accumulator
	done := 0
	if j.resume != nil {
		if !canSnap {
			s.fail(j, fmt.Errorf("service: checkpointed job %s uses backend %q, which cannot restore", j.id, spec.Backend))
			return
		}
		snap, err := ising.DecodeSnapshot(j.resume.Snapshot)
		if err == nil {
			err = snapper.Restore(snap)
		}
		if err != nil {
			s.fail(j, fmt.Errorf("service: resuming job %s: %w", j.id, err))
			return
		}
		done = j.resume.DoneSweeps
		absAcc.SetState(j.resume.AbsM)
		eAcc.SetState(j.resume.Energy)
	}

	total := spec.BurnIn + spec.Sweeps
	emit := func(sm sweep.Sample) {
		absM := math.Abs(sm.Magnetization)
		absAcc.Add(absM)
		eAcc.Add(sm.Energy)
		j.appendSample(sm.Sweep, 0, sm.Magnetization, sm.Energy)
	}
	start := time.Now()
	ranHere := 0
	for done < total {
		if j.ctx.Err() != nil {
			s.interrupted(j, snapper, canCkpt, done, absAcc.State(), eAcc.State())
			return
		}
		limit := total
		if canCkpt {
			if next := (done/ckptEvery + 1) * ckptEvery; next < limit {
				limit = next
			}
		}
		n := limit - done
		if n > maxChunk {
			n = maxChunk
		}
		// Burn-in advances without measuring; the measured phase streams in
		// its own sweep coordinates so a resumed run keeps the emission
		// schedule of an uninterrupted one.
		chunk := n
		if done < spec.BurnIn {
			bn := spec.BurnIn - done
			if bn > n {
				bn = n
			}
			done = sweep.Stream(eng, done, bn, 1, nil)
			n -= bn
		}
		if n > 0 {
			done = spec.BurnIn + sweep.Stream(eng, done-spec.BurnIn, n, spec.SampleInterval, emit)
		}
		ranHere += chunk
		s.sweepsRun.Add(int64(chunk))
		j.setSweepsDone(done)
		if canCkpt && done < total && done%ckptEvery == 0 && j.ctx.Err() == nil {
			if err := s.writeCheckpoint(j, snapper, done, absAcc.State(), eAcc.State()); err != nil {
				s.fail(j, fmt.Errorf("service: checkpointing job %s: %w", j.id, err))
				return
			}
		}
	}

	elapsed := time.Since(start)
	r := &encode.Result{
		Backend: spec.Backend, Rows: spec.Rows, Cols: spec.Cols,
		Temperature: spec.Temperature, Seed: spec.Seed,
		Sweeps: spec.Sweeps, BurnIn: spec.BurnIn,
	}
	encode.Observables(r, eng)
	if absAcc.N() > 0 {
		r.MeanAbsMagnetization = absAcc.Mean()
		r.MeanAbsMagnetizationErr = absAcc.StdErr()
		r.MeanEnergy = eAcc.Mean()
		r.Samples = absAcc.N()
	}
	r.ElapsedSec = elapsed.Seconds()
	if ns := float64(elapsed.Nanoseconds()); ns > 0 && ranHere > 0 {
		r.FlipsPerNs = float64(spec.Rows) * float64(spec.Cols) * float64(ranHere) / ns
	}
	s.complete(j, r)
}

// runBatch runs a batched-ensemble job: Replicas independent chains of the
// spec's backend at one temperature, advanced together in this worker slot
// (one lane-packed engine for multispin, the lane-parallel adapter
// otherwise — backend.NewBatch picks). Every SampleInterval the job streams
// one sample per lane, and the result fans out into per-lane rows; lane L is
// exactly the single chain a separate job with seed ising.LaneSeed(seed, L)
// would run. Batched jobs do not checkpoint.
func (s *Server) runBatch(j *Job) {
	spec := j.spec
	b, err := backend.NewBatch(spec.Backend, backendConfig(spec, spec.Temperature, spec.Seed), spec.Replicas)
	if err != nil {
		s.fail(j, err)
		return
	}
	lanes := b.Lanes()
	absAcc := make([]stats.Accumulator, lanes)
	eAcc := make([]stats.Accumulator, lanes)
	var absAll stats.Accumulator
	total := spec.BurnIn + spec.Sweeps
	start := time.Now()
	done := 0
	for done < total {
		if j.ctx.Err() != nil {
			s.interrupted(j, nil, false, done, stats.AccumulatorState{}, stats.AccumulatorState{})
			return
		}
		n := total - done
		if n > maxChunk {
			n = maxChunk
		}
		for i := 0; i < n; i++ {
			b.Sweep()
			done++
			measured := done - spec.BurnIn
			if measured > 0 && measured%spec.SampleInterval == 0 {
				ms, es := b.Magnetizations(), b.Energies()
				for lane := 0; lane < lanes; lane++ {
					absM := math.Abs(ms[lane])
					absAcc[lane].Add(absM)
					eAcc[lane].Add(es[lane])
					absAll.Add(absM)
					j.appendSample(measured, lane, ms[lane], es[lane])
				}
			}
		}
		s.sweepsRun.Add(int64(n) * int64(lanes))
		j.setSweepsDone(done)
	}
	elapsed := time.Since(start)
	r := &encode.Result{
		Backend: spec.Backend, Rows: spec.Rows, Cols: spec.Cols,
		Temperature: spec.Temperature, Seed: spec.Seed,
		Sweeps: spec.Sweeps, BurnIn: spec.BurnIn,
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
	r.ElapsedSec = elapsed.Seconds()
	if ns := float64(elapsed.Nanoseconds()); ns > 0 && done > 0 {
		r.FlipsPerNs = float64(spec.Rows) * float64(spec.Cols) * float64(done) * float64(lanes) / ns
	}
	s.complete(j, r)
}

// runTempering runs a replica-exchange job: a ladder of replicas of the
// spec's backend coupled by Metropolis swaps every SwapInterval sweeps
// (internal/tempering), executed as one batched ensemble — one lane per rung
// (lane-packed for multispin, lane-parallel otherwise), bit-identical to the
// classic per-replica ladder. Samples stream from the coldest rung; the
// result carries the full per-temperature report. Tempering jobs do not
// checkpoint.
func (s *Server) runTempering(j *Job) {
	spec := j.spec
	ladder, err := backend.NewBatchLadder(spec.Backend,
		backendConfig(spec, 0, spec.Seed), spec.Temperatures)
	if err != nil {
		s.fail(j, err)
		return
	}
	ens, err := tempering.NewBatch(tempering.Config{
		Temperatures: spec.Temperatures,
		SwapInterval: spec.SwapInterval,
		Seed:         spec.Seed,
	}, ladder)
	if err != nil {
		s.fail(j, err)
		return
	}
	burnRounds := (spec.BurnIn + spec.SwapInterval - 1) / spec.SwapInterval
	rounds := spec.Sweeps / spec.SwapInterval
	if rounds < 1 {
		rounds = 1
	}
	start := time.Now()
	sweepsPerRound := spec.SwapInterval
	progress := 0
	step := func(measure bool, round int) bool {
		if j.ctx.Err() != nil {
			s.interrupted(j, nil, false, progress, stats.AccumulatorState{}, stats.AccumulatorState{})
			return false
		}
		ens.Round()
		if measure {
			ens.Measure()
			cold := ens.Backend(0)
			j.appendSample((round+1)*sweepsPerRound, 0, cold.Magnetization(), cold.Energy())
		}
		progress += sweepsPerRound
		s.sweepsRun.Add(int64(sweepsPerRound) * int64(ens.Replicas()))
		j.setSweepsDone(progress)
		return true
	}
	for i := 0; i < burnRounds; i++ {
		if !step(false, i) {
			return
		}
	}
	for i := 0; i < rounds; i++ {
		if !step(true, i) {
			return
		}
	}
	rep := ens.Report()
	elapsed := time.Since(start)
	r := &encode.Result{
		Backend: spec.Backend, Rows: spec.Rows, Cols: spec.Cols,
		Temperature: spec.Temperatures[0], Seed: spec.Seed,
		Sweeps: spec.Sweeps, BurnIn: spec.BurnIn,
	}
	encode.Observables(r, ens.Backend(0))
	encode.Tempering(r, rep)
	r.Ops = ens.Counts().Ops
	r.ElapsedSec = elapsed.Seconds()
	if ns := float64(elapsed.Nanoseconds()); ns > 0 {
		r.FlipsPerNs = float64(spec.Rows) * float64(spec.Cols) * float64(progress) * float64(ens.Replicas()) / ns
	}
	s.complete(j, r)
}

// Workers returns the worker-pool size (for reporting).
func (s *Server) Workers() int { return s.cfg.Workers }
