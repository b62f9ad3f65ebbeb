// Package campaign is the parallel campaign engine: it shards independent
// contract-fuzzing jobs across a pool of workers, each owning an isolated
// chain + fuzzer instance (campaigns share nothing but the process-wide
// solver pool), with deterministic per-job RNG seeding so results are
// identical regardless of worker count. The paper's evaluation (§4, Tables
// 4–6 and the RQ4 wild study) is embarrassingly parallel — thousands of
// contracts each fuzzed in isolation — and this engine is what lets the
// bench harness and the wild sweep use every core.
//
// The engine provides:
//
//   - bounded-queue backpressure: Submit blocks once QueueDepth jobs are
//     waiting, so a producer enumerating a huge population cannot outrun
//     the workers' memory;
//   - per-job timeout/cancel through context.Context, checked between
//     fuzzing iterations (each iteration is fuel-bounded, so even a
//     contract that spins the interpreter is interrupted promptly);
//   - panic isolation: a crashing contract (or detector) fails its own job
//     with a *PanicError, not the whole campaign;
//   - an aggregated Report: per-class flag counts, throughput, merged
//     solver statistics;
//   - resilience: failed jobs retry with deterministically degraded
//     budgets (retry.go), completed jobs stream to an append-only
//     checkpoint journal a killed campaign resumes from (journal.go), and
//     every failure carries a failure.Class so reports can say *how*
//     jobs died, not just how many.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/schedule"
	"repro/internal/wasm"
)

// Job is one contract-fuzzing campaign in a batch. Module and ABI must be
// fully decoded; the engine never mutates them, so many jobs may share one
// module. Jobs that share a module pointer also share its per-bytecode
// artifact on each worker (fuzz.Artifact: the instrumented copy, its
// compiled form and the replay outcomes), so a worker instruments and
// compiles the module once.
type Job struct {
	// ID orders the job in the batch and derives its RNG seed; Run assigns
	// IDs by slice index.
	ID int
	// Name labels the job in results (optional).
	Name string
	// Module and ABI identify the target contract.
	Module *wasm.Module
	ABI    *abi.ABI
	// Config is the per-job fuzzing configuration. A zero Seed is replaced
	// by the engine's deterministic derivation (BaseSeed + ID).
	Config fuzz.Config
}

// Config tunes the engine.
type Config struct {
	// Workers is the pool size. 0 uses GOMAXPROCS.
	Workers int
	// QueueDepth bounds the submit queue (backpressure). 0 uses 2×Workers.
	QueueDepth int
	// JobTimeout is the per-job deadline. 0 disables it.
	JobTimeout time.Duration
	// BaseSeed derives per-job RNG seeds: a job whose Config.Seed is zero
	// fuzzes with BaseSeed + ID. Worker scheduling never influences the
	// seed, which is what makes results worker-count invariant.
	BaseSeed int64
	// Retry re-attempts failed jobs with degraded budgets (see retry.go).
	// The zero value disables retries.
	Retry RetryPolicy
	// Journal, when non-empty, streams every completed job to an
	// append-only JSONL checkpoint file at this path (see journal.go).
	Journal string
	// Resume replays jobs already recorded in the Journal file instead of
	// re-running them; unrecorded jobs run normally. The journal's base
	// seed must match BaseSeed — resuming under a different derivation
	// would silently mix two campaigns.
	Resume bool
	// JournalSync is the journal's explicit fsync policy: fsync after
	// every N job records (the WAL header is always synced, and Close
	// syncs the remainder). 0 uses wal.DefaultSyncEvery; 1 syncs every
	// record; negative disables record fsyncs (tests). A crash loses at
	// most the last unsynced records — a resume re-runs exactly those.
	JournalSync int
	// Faults injects the planned fault into each job attempt's chain and
	// solver (see internal/faultinject). Nil injects nothing.
	Faults *faultinject.Plan
	// Memo selects the cross-job memoization scope (see internal/memo):
	// off (default) disables caching, on gives this campaign a private
	// cache, shared uses the process-wide cache. Memoization never
	// changes findings — FindingsDigest and StateDigest are byte-
	// identical with the cache on or off at any worker count.
	Memo memo.Mode
	// MemoCache overrides the cache instance (implies Memo on). The batch
	// facade uses it so module decoding at Submit time and the engine's
	// solver/verdict tiers share one cache.
	MemoCache *memo.Cache
	// Adaptive enables the coverage-driven scheduling layer
	// (internal/schedule) at both levels: every job runs the intra-job
	// power schedule (fuzz.Config.Adaptive), and the campaign runs a fuel
	// ledger — each job parks after phase 1, and once Close has been called
	// and every submitted job has settled, the unspent iterations of the
	// jobs that saturated are regranted to still-progressing jobs, which
	// then finish (see adaptive.go). Run and the streaming Engine behave
	// alike. Every decision is a pure function of (seed, observed
	// coverage), so adaptive campaigns are digest-identical at any worker
	// count and across a kill+resume; Adaptive=false is byte-identical to
	// the historical engine.
	Adaptive bool
	// SaturationWindow is the adaptive saturation horizon in iterations
	// (0 uses fuzz.DefaultSaturationWindow). Ignored unless Adaptive.
	SaturationWindow int
}

// memoCache resolves the cache the engine should use (nil = off).
func (c Config) memoCache() *memo.Cache {
	if c.MemoCache != nil {
		return c.MemoCache
	}
	return memo.ForMode(c.Memo)
}

// workers resolves the pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// queueDepth resolves the bounded-queue capacity.
func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 2 * c.workers()
}

// JobResult is the outcome of one job.
type JobResult struct {
	Job Job
	// Result is the campaign outcome (nil when Err is non-nil).
	Result *fuzz.Result
	// Err is the job's failure: a setup/run error, the per-job context
	// error on timeout, or a *PanicError when the job panicked.
	Err error
	// Attempts counts the tries the job consumed (0 for replayed jobs, 1
	// when the first try decided it).
	Attempts int
	// DegradedMode labels the degradation the accepted attempt ran under
	// (retry.go's Degrade* constants); empty when the job ran as
	// configured.
	DegradedMode string
	// FailureClass classifies Err (failure.None when the job succeeded).
	FailureClass failure.Class
	// Replayed marks a result restored from a resume journal rather than
	// executed.
	Replayed bool
	// Duration is the job's wall-clock time.
	Duration time.Duration
}

// Degraded reports whether the job's accepted result ran with degraded
// budgets.
func (jr *JobResult) Degraded() bool { return jr.DegradedMode != "" }

// PanicError is a panic recovered from a job, preserving the stack so a
// crashing contract is diagnosable without taking down the campaign.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign: job panicked: %v", e.Value)
}

// Engine is a streaming worker pool: submit jobs as they are discovered,
// read results as they complete. For a known slice of jobs use Run, which
// also preserves order and aggregates.
type Engine struct {
	cfg      Config
	ctx      context.Context
	jobs     chan Job
	resume   chan *liveJob // parked jobs, fed once the fuel ledger has run
	results  chan JobResult
	settled  sync.WaitGroup         // workers still taking submissions
	wg       sync.WaitGroup         // workers still running
	done     map[int]*journalRecord // journaled outcomes to replay (resume)
	jw       *journalWriter         // non-nil when cfg.Journal is set
	memo     *memo.Cache            // non-nil when memoization is active
	memoBase memo.Stats             // counters at Start (delta base for shared caches)

	quit       chan struct{}  // closed by Close
	submitting sync.WaitGroup // Submit calls past the closed check
	mu         sync.Mutex
	closed     bool                // Close has been called
	phases     []schedule.JobPhase // fuel-ledger inputs of settled jobs
	parked     []*liveJob          // adaptive jobs waiting for their grant
	ledger     schedule.LedgerStats
}

// Start launches the worker pool. The context cancels every in-flight and
// queued job; Close (or Run) must be called to release the workers. Start
// fails only on journal problems: an unopenable journal file, or resuming
// against a journal written under a different base seed.
func Start(ctx context.Context, cfg Config) (*Engine, error) {
	done, jw, err := openJournal(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		ctx:     ctx,
		jobs:    make(chan Job, cfg.queueDepth()),
		resume:  make(chan *liveJob),
		results: make(chan JobResult, cfg.queueDepth()),
		quit:    make(chan struct{}),
		done:    done,
		jw:      jw,
	}
	e.memo = cfg.memoCache()
	e.memoBase = e.memo.Snapshot()
	workers := cfg.workers()
	e.settled.Add(workers)
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer e.wg.Done()
			// The worker's artifacts serve every job it runs, a parked job it
			// resumes or retries from scratch included, and die with it.
			arts := &artifactCache{}
			for job := range e.jobs {
				e.settle(job, arts)
			}
			e.settled.Done()
			for lj := range e.resume {
				e.run(lj, arts)
				e.deliver(lj)
			}
		}()
	}
	go func() {
		e.settled.Wait()
		e.barrier()
		e.wg.Wait()
		if e.jw != nil {
			e.jw.Close()
		}
		close(e.results)
	}()
	return e, nil
}

// Submit enqueues one job, blocking when the bounded queue is full. It
// fails (without enqueueing) once the engine's context is cancelled or
// Close has been called.
func (e *Engine) Submit(job Job) error {
	// Check cancellation first: the jobs channel is buffered, so a bare
	// select could accept a job even after the context is already done.
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("campaign: submit: %w", err)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errClosed
	}
	e.submitting.Add(1)
	e.mu.Unlock()
	defer e.submitting.Done()
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("campaign: submit: %w", e.ctx.Err())
	case <-e.quit:
		return errClosed
	case e.jobs <- job:
		return nil
	}
}

// errClosed rejects a Submit that comes after Close.
var errClosed = fmt.Errorf("campaign: submit after Close") //wasai:rawerr API misuse, surfaced to the caller and never retried

// Close ends submission; Results delivers the remaining outcomes and then
// closes. An adaptive campaign's fuel-ledger barrier runs once Close has
// been called and every submitted job has settled. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	closed := e.closed
	e.closed = true
	e.mu.Unlock()
	if !closed {
		close(e.quit)
		e.submitting.Wait() // a Submit racing Close returns before the queue closes
		close(e.jobs)
	}
}

// MemoStats returns this campaign's cache-counter delta since Start, or
// nil when memoization is off. Against a shared cache the delta isolates
// this campaign's hits from other campaigns'.
func (e *Engine) MemoStats() *memo.Stats {
	if e.memo == nil {
		return nil
	}
	d := e.memo.Snapshot().Sub(e.memoBase)
	return &d
}

// Results streams job outcomes in completion order. The channel closes
// after Close once every submitted job has been delivered. An adaptive
// campaign delivers its parked jobs only after Close, past the fuel-ledger
// barrier.
func (e *Engine) Results() <-chan JobResult { return e.results }

// JournalErr returns the journal's sticky first failure (a write, an fsync
// or the final close), or nil. Once Results has closed it is final: the
// results are complete, but resuming from the journal is not safe.
func (e *Engine) JournalErr() error {
	if e.jw == nil {
		return nil
	}
	return e.jw.Err()
}

// Report aggregates results collected from this engine and adds what only
// the engine knows: the memo counter delta and the fuel-ledger totals.
// Call it after Results has closed.
func (e *Engine) Report(results []JobResult, wall time.Duration) *Report {
	rep := Aggregate(results, wall)
	rep.Memo = e.MemoStats()
	rep.Sched.FuelReturned = e.ledger.Returned
	rep.Sched.FuelReallocated = e.ledger.Reallocated
	rep.Sched.SaturatedJobs = e.ledger.Saturated
	return rep
}

// settle runs one submitted job up to the fuel-ledger barrier. An adaptive
// job that completed phase 1 parks with its fuzzer open; any other job is
// final and delivered now.
func (e *Engine) settle(job Job, arts *artifactCache) {
	lj := &liveJob{job: job}
	e.run(lj, arts)
	e.mu.Lock()
	if p, ok := lj.ledgerPhase(); ok && e.cfg.Adaptive {
		e.phases = append(e.phases, p)
	}
	if lj.parked {
		e.parked = append(e.parked, lj)
	}
	e.mu.Unlock()
	if !lj.parked {
		e.deliver(lj)
	}
}

// barrier runs once every submitted job has settled: the fuel ledger, a
// pure function of the phase-1 summaries, grants the parked jobs their
// extra iterations and hands them back to the workers. A campaign
// cancelled before the barrier settled only some of its jobs, so its
// ledger would grant the wrong fuel: the parked jobs fail with the context
// error instead, and stay off the journal.
func (e *Engine) barrier() {
	defer close(e.resume)
	if err := e.ctx.Err(); err != nil {
		for _, lj := range e.parked {
			lj.jr.Err = jobErr(lj.job, failure.Wrap(failure.Timeout, err))
			lj.jr.FailureClass = failure.Timeout
			e.deliver(lj)
		}
		return
	}
	var grants map[int]int
	grants, e.ledger = schedule.Reallocate(e.phases)
	for i, lj := range e.parked {
		e.parked[i] = nil // a finished job's fuzzer is garbage at once
		lj.grant = grants[lj.job.ID]
		e.resume <- lj
	}
}

// run advances a job as far as it can go: a new job through journal
// replay and the retry loop (an adaptive job parks after phase 1); a
// parked job through its grant and the finish. The whole loop runs inline
// in the job's worker — retries never reschedule — so results stay a pure
// function of the job, not of worker count or timing. A fresh fuzzer takes
// its artifact from the worker's table arts.
func (e *Engine) run(lj *liveJob, arts *artifactCache) {
	start := time.Now() //wasai:nondet JobResult.Duration is reporting-only, never fed back
	defer func() {
		if r := recover(); r != nil {
			// A panic outside an attempt (bookkeeping) is terminal:
			// attempts carry their own recovery, so this one would repeat.
			lj.parked = false
			lj.jr.Result = nil
			lj.jr.Err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
			lj.jr.FailureClass = failure.Panic
		}
		lj.jr.Duration += time.Since(start) //wasai:nondet reporting-only duration metric
	}()
	if !lj.parked {
		lj.jr.Job = lj.job
		if rec, ok := e.done[lj.job.ID]; ok {
			lj.jr, lj.rec = rec.toResult(lj.job), rec
			return
		}
	}
	// A parked job's first try resumes the attempt that parked it.
	attempt := lj.jr.Attempts
	if lj.parked {
		attempt--
	}
	for ; attempt < e.cfg.Retry.maxAttempts(); attempt++ {
		res, mode, err := e.attempt(lj, attempt, arts)
		lj.jr.Attempts = attempt + 1
		if err == nil {
			lj.jr.Result, lj.jr.DegradedMode = res, mode
			lj.jr.Err, lj.jr.FailureClass = nil, failure.None
			return
		}
		lj.jr.Result = nil
		lj.jr.Err = err
		lj.jr.FailureClass = failure.ClassOf(err)
		if !lj.jr.FailureClass.Retryable() || e.ctx.Err() != nil {
			return // deterministic failure, or the campaign itself is dying
		}
	}
}

// attempt runs one try of a job under its own deadline, panic isolation,
// degradation schedule and fault-injection slice. A parked job resumes its
// open fuzzer, which keeps the artifact it was built from; otherwise the
// try starts a fresh one from the worker's artifact for the module and
// runs phase 1, and an adaptive job's first phase 1 parks it for the fuel
// ledger (a nil result with a nil error). The rest spends the job's grant
// and finishes.
func (e *Engine) attempt(lj *liveJob, attempt int, arts *artifactCache) (res *fuzz.Result, mode string, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	ctx := e.ctx
	if e.cfg.JobTimeout > 0 {
		// Each attempt gets the full budget: a degraded retry racing the
		// remnant of the first attempt's deadline could never catch up.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.JobTimeout)
		defer cancel()
	}
	var cfg fuzz.Config
	cfg, mode = jobConfig(lj.job, attempt, e.cfg, e.memo)
	f := lj.f
	if lj.parked {
		lj.parked = false // a failed resume retries from scratch
	} else {
		a, err := arts.artifact(lj.job.Module)
		if err != nil {
			return nil, mode, jobErr(lj.job, err)
		}
		if f, err = fuzz.NewFrom(a, lj.job.ABI, cfg); err != nil {
			return nil, mode, jobErr(lj.job, err)
		}
		phase, err := f.RunPhase(ctx)
		if err != nil {
			return nil, mode, jobErr(lj.job, err)
		}
		if e.cfg.Adaptive && lj.f == nil {
			lj.f, lj.phase, lj.parked = f, phase, true
			return nil, mode, nil
		}
	}
	if lj.grant > 0 {
		if _, err := f.ContinuePhase(ctx, lj.grant); err != nil {
			return nil, mode, jobErr(lj.job, err)
		}
	}
	if res, err = f.Finish(ctx); err != nil {
		return nil, mode, jobErr(lj.job, err)
	}
	return res, mode, nil
}

// jobErr names the job a failure belongs to.
func jobErr(job Job, err error) error {
	return fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
}

// deliver journals a final job and sends it to Results.
func (e *Engine) deliver(lj *liveJob) {
	e.record(lj)
	e.results <- lj.jr
}

// record appends a final job to the journal. Jobs cancelled by the engine's
// own context are not outcomes — a resumed run must re-execute them — and
// replayed jobs are already on disk. A job that parked also records its
// phase-1 summary and grant, even when phase 2 had to retry, so a resumed
// campaign recomputes the identical ledger.
func (e *Engine) record(lj *liveJob) {
	if e.jw == nil || lj.jr.Replayed {
		return
	}
	if lj.jr.Err != nil && e.ctx.Err() != nil {
		return
	}
	rec := recordOf(lj.jr)
	if lj.f != nil {
		if rec.Sched == nil {
			rec.Sched = &schedRecord{}
		}
		rec.Sched.Executed = true
		rec.Sched.P1Saturated = lj.phase.Saturated
		rec.Sched.Unspent = lj.phase.FuelUnspent
		rec.Sched.P1Coverage = lj.phase.Coverage
		rec.Sched.P1Iters = lj.phase.Iterations
		rec.Sched.Grant = lj.grant
	}
	e.jw.append(rec)
}

// Run shards jobs across the pool and blocks until all complete, returning
// the aggregated report with Results in job order (jobs[i] → Results[i]).
// Job IDs are assigned from slice indices, overriding any preset ID, so
// seeds are a pure function of position. Run fails only on a cancelled
// context or a failed journal; per-job failures are reported in
// Report.Results[i].Err.
func Run(ctx context.Context, jobs []Job, cfg Config) (*Report, error) {
	start := time.Now() //wasai:nondet Report.Wall is reporting-only, never fed back
	e, err := Start(ctx, cfg)
	if err != nil {
		return nil, err
	}
	results := make([]JobResult, len(jobs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for jr := range e.Results() {
			results[jr.Job.ID] = jr
		}
	}()
	var submitErr error
	for i, job := range jobs {
		job.ID = i
		if submitErr = e.Submit(job); submitErr != nil {
			break
		}
	}
	e.Close()
	<-done
	if submitErr != nil {
		return nil, submitErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := e.JournalErr(); err != nil {
		// The campaign finished but its checkpoint is unreliable;
		// surfacing that beats handing back a journal that resumes wrong.
		return nil, err
	}
	//wasai:nondet reporting-only wall-clock aggregate
	return e.Report(results, time.Since(start)), nil
}

// Each runs fn for indices 0..n-1 on the worker pool with the same panic
// isolation and per-item deadline as fuzzing jobs. It is the generic form
// the bench harness uses for non-WASAI detectors; the first error (in index
// order) is returned after all items finish.
func Each(ctx context.Context, n int, cfg Config, fn func(ctx context.Context, i int) error) error {
	errs := make([]error, n)
	workers := cfg.workers()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = eachItem(ctx, cfg, i, fn)
			}
		}()
	}
loop:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			break loop
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// eachItem applies the per-item deadline and panic recovery around one call.
func eachItem(ctx context.Context, cfg Config, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.JobTimeout)
		defer cancel()
	}
	return fn(ctx, i)
}
