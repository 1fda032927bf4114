package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"qmatch"
	"qmatch/internal/obs"
)

// Metric names of the job subsystem, maintained in the registry the
// manager is configured with (qmatchd passes its HTTP registry, so one
// /metrics scrape carries request, job and runtime series).
const (
	MetricJobs         = "qmatchd_jobs_total"       // counter, label status=completed|failed|cancelled
	MetricJobsActive   = "qmatchd_jobs_active"      // gauge: non-terminal jobs
	MetricJobShards    = "qmatchd_job_shards_total" // counter: acknowledged shards
	MetricShardRetries = "qmatchd_job_shard_retries_total"
	MetricJobCells     = "qmatchd_job_cells_total" // counter: completed cells
	MetricJobDuration  = "qmatchd_job_duration_seconds"
)

// ErrNotFound is returned by Get/Cancel/Delete for an unknown job id —
// never submitted, or already evicted from the bounded store.
var ErrNotFound = errors.New("jobs: job not found")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// Config tunes a Manager. The zero value is usable: every knob falls
// back to the documented default.
type Config struct {
	// Engine matches the cells of jobs without an override Engine.
	// Required unless every Spec carries its own Engine.
	Engine *qmatch.Engine
	// Workers bounds the shard workers (default GOMAXPROCS).
	Workers int
	// ShardCost is the pair-table cost budget of one shard, in
	// sourceNodes×targetNodes units (default 1<<20 — a protein-sized
	// ~867k-cell pair table still fits one shard). See Partition.
	ShardCost int64
	// MaxRetries bounds re-dispatches of one shard after failures
	// (default 3; the first attempt is not a retry).
	MaxRetries int
	// RetryBackoff is the base delay before a failed shard is re-queued;
	// attempt n waits RetryBackoff×2^(n-1) (default 100ms).
	RetryBackoff time.Duration
	// MaxJobs bounds terminal jobs retained for polling; beyond it the
	// least-recently-accessed terminal job is evicted (default 64).
	// Active jobs are never evicted.
	MaxJobs int
	// Gate, when non-nil, admits every shard attempt: workers call it
	// before executing and the returned release after. qmatchd wires the
	// server's concurrency limiter here so job shards share match slots
	// fairly with synchronous requests.
	Gate func(ctx context.Context) (release func(), err error)
	// Metrics receives the job-subsystem series; nil disables them.
	Metrics *obs.Registry
	// Logger receives job lifecycle events; nil disables logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardCost == 0 {
		c.ShardCost = 1 << 20
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	return c
}

// shardState is the manager-internal state of one shard.
type shardState struct {
	Shard
	status   ShardStatus
	attempts int
	// span is the open trace span of the in-flight attempt.
	span *obs.ActiveSpan
}

// Job is one submitted batch match. All mutable state except access is
// guarded by mu; readers take snapshots via Progress and ResultsFrom.
type Job struct {
	id      string
	spec    Spec
	created time.Time
	mgr     *Manager
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	updated  chan struct{} // closed and replaced on every state change
	status   Status
	errMsg   string
	started  time.Time
	finished time.Time
	shards   []shardState
	done     int // acknowledged shards
	retries  int
	// results holds one serialized report per cell; ready is the
	// contiguous-prefix frontier streamed to clients.
	results        []json.RawMessage
	ready          int
	completedCells int
	trace          *obs.Trace
	jobSpan        *obs.ActiveSpan
	finalTrace     *obs.MatchTrace

	// access is the LRU clock of the terminal-job store, guarded by the
	// manager's mu (not the job's) so eviction needs no job lock to rank.
	access time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's submission spec (treat as read-only).
func (j *Job) Spec() *Spec { return &j.spec }

// task is one dispatchable unit of work.
type task struct {
	job   *Job
	shard int
}

// Manager is the job coordinator: it partitions submitted grids into
// shards, feeds them to its worker pool, retries failed attempts, and
// retains terminal jobs in a bounded LRU store. Construct with New; Close
// stops the workers and cancels every active job.
//
// Lock order is manager before job: code holding a job's mu never takes
// the manager's mu, and the terminal transition (finish) and eviction
// take the manager's mu first.
type Manager struct {
	cfg Config
	wg  sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	jobs   map[string]*Job
	closed bool

	// fault, when non-nil, is consulted before every shard attempt with
	// the attempt's context; a non-nil error fails the attempt. Tests
	// inject failures and hold attempts open through SetFaultInjector.
	fault func(ctx context.Context, jobID string, shard, attempt int) error

	active       *obs.Gauge
	shardsDone   *obs.Counter
	shardRetries *obs.Counter
	cellsDone    *obs.Counter
	jobDur       *obs.Histogram
}

// New builds a Manager and starts its Workers worker goroutines.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, jobs: make(map[string]*Job)}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Metrics != nil {
		m.active = cfg.Metrics.Gauge(MetricJobsActive)
		m.shardsDone = cfg.Metrics.Counter(MetricJobShards)
		m.shardRetries = cfg.Metrics.Counter(MetricShardRetries)
		m.cellsDone = cfg.Metrics.Counter(MetricJobCells)
		m.jobDur = cfg.Metrics.Histogram(MetricJobDuration, nil)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// SetFaultInjector installs (or clears, with nil) a hook consulted before
// every shard attempt, after the gate admitted it. ctx is the attempt's
// context (the job's), cancelled when the job is cancelled or the manager
// closes; returning a non-nil error fails the attempt as if matching had.
// Tests use it to force the retry path deterministically and to hold an
// attempt mid-flight until cancellation.
func (m *Manager) SetFaultInjector(f func(ctx context.Context, jobID string, shard, attempt int) error) {
	m.mu.Lock()
	m.fault = f
	m.mu.Unlock()
}

// Close stops accepting submissions, cancels every active job (they
// finish as cancelled) and waits for the workers to exit.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	m.cond.Broadcast()
	m.wg.Wait()
}

// Submit accepts one job, partitions its grid and queues the shards.
// The returned Job is live immediately; poll it with Progress.
func (m *Manager) Submit(id string, spec Spec) (*Job, error) {
	if len(spec.Sources) == 0 || len(spec.Targets) == 0 {
		return nil, fmt.Errorf("jobs: need at least one source and one target schema")
	}
	if spec.Engine == nil && m.cfg.Engine == nil {
		return nil, fmt.Errorf("jobs: no engine configured")
	}
	shards := Partition(spec.Sources, spec.Targets, m.cfg.ShardCost)
	cells := len(spec.Sources) * len(spec.Targets)
	now := time.Now()
	j := &Job{
		id:      id,
		spec:    spec,
		created: now,
		access:  now,
		mgr:     m,
		updated: make(chan struct{}),
		status:  StatusPending,
		shards:  make([]shardState, len(shards)),
		results: make([]json.RawMessage, cells),
		trace:   obs.NewTrace(),
	}
	j.trace.SetID(id)
	j.jobSpan = j.trace.StartSpan(obs.PhaseJob)
	j.jobSpan.SetNodes(len(spec.Sources), len(spec.Targets))
	j.jobSpan.SetCells(int64(cells))
	j.trace.SetParent(j.jobSpan)
	for i, sh := range shards {
		j.shards[i] = shardState{Shard: sh, status: ShardPending}
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.cancel()
		return nil, ErrClosed
	}
	if _, dup := m.jobs[id]; dup {
		m.mu.Unlock()
		j.cancel()
		return nil, fmt.Errorf("jobs: duplicate job id %s", id)
	}
	m.jobs[id] = j
	m.active.Add(1) // nil-safe
	for i := range shards {
		m.queue = append(m.queue, task{job: j, shard: i})
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.cfg.Logger != nil {
		m.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "job submitted",
			slog.String("job", id), slog.Int("sources", len(spec.Sources)),
			slog.Int("targets", len(spec.Targets)), slog.Int("cells", cells),
			slog.Int("shards", len(shards)))
	}
	return j, nil
}

// Get returns a job by id, refreshing its LRU clock, or ErrNotFound.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	j.access = time.Now()
	return j, nil
}

// List snapshots every retained job's progress (no shard detail), newest
// submission first.
func (m *Manager) List() []Progress {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Progress, len(jobs))
	for i, j := range jobs {
		out[i] = j.Progress(false)
	}
	// Newest first; ties (same create tick) break by descending id for
	// determinism.
	slices.SortFunc(out, func(a, b Progress) int {
		if c := b.Created.Compare(a.Created); c != 0 {
			return c
		}
		return strings.Compare(b.ID, a.ID)
	})
	return out
}

// Cancel cancels an active job (terminal jobs are left untouched); it
// returns the job's resulting progress or ErrNotFound.
func (m *Manager) Cancel(id string) (Progress, error) {
	j, err := m.Get(id)
	if err != nil {
		return Progress{}, err
	}
	j.Cancel()
	return j.Progress(false), nil
}

// Delete removes a terminal job from the store (polling it afterwards is
// ErrNotFound). An active job is cancelled instead and retained for a
// final poll. The returned progress reflects the job's final state.
func (m *Manager) Delete(id string) (Progress, error) {
	j, err := m.Get(id)
	if err != nil {
		return Progress{}, err
	}
	if !j.terminal() {
		j.Cancel()
		return j.Progress(false), nil
	}
	m.mu.Lock()
	delete(m.jobs, id)
	m.mu.Unlock()
	return j.Progress(false), nil
}

// Len returns the number of retained jobs (active + terminal).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// next blocks until a task is available or the manager closes.
func (m *Manager) next() (task, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return task{}, false
	}
	t := m.queue[0]
	m.queue = m.queue[1:]
	return t, true
}

// enqueue re-queues a task after a failed attempt's backoff.
func (m *Manager) enqueue(t task) {
	m.mu.Lock()
	if !m.closed {
		m.queue = append(m.queue, t)
		m.cond.Signal()
	}
	m.mu.Unlock()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		t, ok := m.next()
		if !ok {
			return
		}
		m.runShard(t)
	}
}

// runShard executes one attempt of one shard: admit it through the gate,
// match its cells with panic containment, and acknowledge or retry.
func (m *Manager) runShard(t task) {
	j := t.job
	j.mu.Lock()
	if j.status.Terminal() {
		// Cancelled or failed while this task was queued — nothing to run.
		j.mu.Unlock()
		return
	}
	if j.status == StatusPending {
		j.status = StatusRunning
		j.started = time.Now()
		j.broadcastLocked()
	}
	ss := &j.shards[t.shard]
	ss.status = ShardRunning
	ss.attempts++
	attempt := ss.attempts
	ss.span = j.jobSpan.Child(obs.PhaseShard)
	ss.span.SetCells(int64(ss.Cells()))
	ss.span.SetLevel(ss.Index + 1)
	shard := ss.Shard
	j.mu.Unlock()

	results, err := m.execute(j, shard, attempt)
	m.ack(j, t.shard, results, err)
}

// execute runs one attempt under the job's context: it waits for the gate,
// consults the fault hook, then matches every cell of the shard through
// the job's Engine and serializes each report compactly with
// encoding/json — the serialization a synchronous MatchAll response
// embeds. A panic becomes the attempt's error, so a crashing match loses
// only the attempt.
func (m *Manager) execute(j *Job, shard Shard, attempt int) (results []json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: shard panic: %v", p)
		}
	}()
	ctx := j.ctx
	if gate := m.cfg.Gate; gate != nil {
		release, gerr := gate(ctx)
		if gerr != nil {
			return nil, gerr
		}
		defer release()
	}
	m.mu.Lock()
	fault := m.fault
	m.mu.Unlock()
	if fault != nil {
		if ferr := fault(ctx, j.id, shard.Index, attempt); ferr != nil {
			return nil, ferr
		}
	}
	eng := j.spec.Engine
	if eng == nil {
		eng = m.cfg.Engine
	}
	nt := len(j.spec.Targets)
	results = make([]json.RawMessage, 0, shard.Cells())
	for k := shard.Start; k < shard.End; k++ {
		rep, err := eng.MatchCompiledContext(ctx, j.spec.Sources[k/nt], j.spec.Targets[k%nt])
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		results = append(results, raw)
	}
	return results, nil
}

// ack records the outcome of one attempt: its results, a retry after
// backoff, or — once the shard has used up its retries — the job's
// failure.
func (m *Manager) ack(j *Job, shard int, results []json.RawMessage, err error) {
	j.mu.Lock()
	ss := &j.shards[shard]
	if j.status.Terminal() {
		// Cancelled or failed while this attempt was in flight; finish
		// already closed its span as partial.
		ss.status = ShardFailed
		j.mu.Unlock()
		return
	}
	if err != nil {
		ss.span.MarkPartial()
		ss.span.End()
		ss.span = nil
		if ss.attempts > m.cfg.MaxRetries {
			ss.status = ShardFailed
			msg := fmt.Sprintf("shard %d failed after %d attempts: %v", shard, ss.attempts, err)
			j.mu.Unlock()
			m.finish(j, StatusFailed, msg)
			return
		}
		ss.status = ShardPending
		j.retries++
		attempt := ss.attempts
		backoff := m.cfg.RetryBackoff << (attempt - 1)
		j.mu.Unlock()
		m.shardRetries.Inc() // nil-safe
		if m.cfg.Logger != nil {
			m.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "job shard retry",
				slog.String("job", j.id), slog.Int("shard", shard),
				slog.Int("attempt", attempt), slog.Duration("backoff", backoff),
				slog.String("error", err.Error()))
		}
		time.AfterFunc(backoff, func() { m.enqueue(task{job: j, shard: shard}) })
		return
	}
	ss.status = ShardDone
	ss.span.End()
	ss.span = nil
	copy(j.results[ss.Start:ss.End], results)
	j.completedCells += ss.Cells()
	for j.ready < len(j.results) && j.results[j.ready] != nil {
		j.ready++
	}
	j.done++
	completed := j.done == len(j.shards)
	cells := ss.Cells()
	j.broadcastLocked()
	j.mu.Unlock()
	m.shardsDone.Inc()
	m.cellsDone.Add(int64(cells))
	if completed {
		m.finish(j, StatusCompleted, "")
	}
}

// finish is the one terminal transition — completed, failed and
// cancelled alike. Holding the manager's mu and then the job's, it
// retires the job from the active gauge, counts it by status, evicts
// over-bound terminal jobs, and only then publishes the terminal status
// to pollers and Updated waiters. It then cancels the job's context, which
// aborts any attempt still in flight. A job already terminal is left
// untouched.
func (m *Manager) finish(j *Job, status Status, errMsg string) {
	m.mu.Lock()
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		m.mu.Unlock()
		return
	}
	j.status = status
	j.errMsg = errMsg
	j.finished = time.Now()
	for i := range j.shards {
		if sp := j.shards[i].span; sp != nil {
			sp.MarkPartial()
			sp.End()
			j.shards[i].span = nil
		}
	}
	j.jobSpan.End()
	j.finalTrace = j.trace.Finish()
	elapsed := j.finished.Sub(j.created)
	cells := j.completedCells
	m.active.Add(-1) // nil-safe
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Counter(obs.LabeledName(MetricJobs, "status", string(status))).Inc()
	}
	m.jobDur.Observe(elapsed.Seconds())
	m.evictLocked(j)
	j.broadcastLocked()
	j.mu.Unlock()
	m.mu.Unlock()
	j.cancel()
	if m.cfg.Logger != nil {
		level := slog.LevelInfo
		if status != StatusCompleted {
			level = slog.LevelWarn
		}
		m.cfg.Logger.LogAttrs(context.Background(), level, "job "+string(status),
			slog.String("job", j.id), slog.Int("cells", cells),
			slog.Duration("elapsed", elapsed))
	}
}

// evictLocked drops least-recently-accessed terminal jobs beyond MaxJobs.
// Callers hold m.mu and the mu of finishing, the job turning terminal
// (counted as terminal without locking it again).
func (m *Manager) evictLocked(finishing *Job) {
	for {
		terminal := 0
		var oldest *Job
		for _, j := range m.jobs {
			if j != finishing && !j.terminal() {
				continue
			}
			terminal++
			if oldest == nil || j.access.Before(oldest.access) {
				oldest = j
			}
		}
		if terminal <= m.cfg.MaxJobs {
			return
		}
		delete(m.jobs, oldest.id)
	}
}

// terminal reports whether the job has reached a terminal state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

// Cancel moves the job to cancelled (no-op when already terminal) and
// cancels its context; in-flight shard attempts abort between fill
// levels through the Engine's existing cancellation plumbing.
func (j *Job) Cancel() { j.mgr.finish(j, StatusCancelled, "") }

// Progress snapshots the job; withShards includes per-shard detail.
func (j *Job) Progress(withShards bool) Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := Progress{
		ID:             j.id,
		Status:         j.status,
		Error:          j.errMsg,
		Created:        j.created,
		Sources:        len(j.spec.Sources),
		Targets:        len(j.spec.Targets),
		Cells:          len(j.results),
		CompletedCells: j.completedCells,
		ShardsTotal:    len(j.shards),
		ShardsDone:     j.done,
		Retries:        j.retries,
		SourceIDs:      j.spec.SourceIDs,
		TargetIDs:      j.spec.TargetIDs,
	}
	if !j.started.IsZero() {
		t := j.started
		p.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		p.Finished = &t
	}
	if withShards {
		p.Shards = make([]ShardProgress, len(j.shards))
		for i := range j.shards {
			p.Shards[i] = ShardProgress{
				Shard:    j.shards[i].Shard,
				Status:   j.shards[i].status,
				Attempts: j.shards[i].attempts,
			}
		}
	}
	return p
}

// Trace returns the job's finished hierarchical trace (job span with one
// child span per shard attempt), or nil while the job is still active.
func (j *Job) Trace() *obs.MatchTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finalTrace
}

// broadcastLocked wakes every Updated waiter. Callers hold j.mu.
func (j *Job) broadcastLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// Updated returns a channel closed on the job's next state change
// (shard completion, status transition) — the poll/stream wait primitive.
func (j *Job) Updated() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.updated
}

// ResultsFrom returns the contiguous run of serialized cell reports
// starting at cell index from (ending at the first not-yet-completed
// cell), together with the job's current status and error. The returned
// slice aliases the job's immutable result buffers — do not mutate.
func (j *Job) ResultsFrom(from int) ([]json.RawMessage, Status, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= j.ready {
		return nil, j.status, j.errMsg
	}
	return j.results[from:j.ready], j.status, j.errMsg
}
