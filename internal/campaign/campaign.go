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
	"repro/internal/wasm"
)

// Job is one contract-fuzzing campaign in a batch. Module and ABI must be
// fully decoded; the engine never mutates them (campaigns instrument a
// copy), so many jobs may share one module.
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
	// StaticTriage runs internal/static over each job's module before
	// fuzzing: jobs whose module provably cannot trip any oracle are
	// answered with a synthesized all-clean result (JobResult.Skipped), and
	// Run schedules the rest highest-static-score first. Triage never
	// changes findings — skips are provably-negative only, and reordering
	// is invisible because seeds derive from job IDs.
	StaticTriage bool
	// Verdicts runs the abstract-interpretation verdict engine
	// (internal/static/absint) over each job's module and ABI before
	// fuzzing. Jobs with all eight oracle classes (contractgen.Classes)
	// proven negative are answered with the same synthesized all-clean
	// result a StaticTriage skip produces; jobs with a proven-positive
	// class are scheduled confirmed-first and skip the static fuel/solver
	// budget raise. The
	// engine never changes findings — skips rest on machine-checked
	// negative proofs, reordering is invisible because seeds derive from
	// job IDs, and FindingsDigest is byte-identical with verdicts on or
	// off at any worker count.
	Verdicts bool
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
	// solver/static tiers share one cache.
	MemoCache *memo.Cache
	// Adaptive enables the coverage-driven scheduling layer
	// (internal/schedule) at both levels: every job runs the intra-job
	// power schedule (fuzz.Config.Adaptive), and Run becomes a two-phase
	// campaign with a fuel ledger — jobs that saturate return unspent
	// iterations at a barrier, and the campaign regrants them to
	// still-progressing jobs (see adaptive.go). Every decision is a pure
	// function of (seed, observed coverage), so adaptive campaigns are
	// digest-identical at any worker count; Adaptive=false is
	// byte-identical to the historical engine. The streaming Engine cannot
	// barrier, so Start applies the intra-job schedule only.
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
	// Skipped marks a job answered by static triage without execution:
	// Result is the synthesized all-clean verdict the fuzzer would have
	// produced (and its coverage/iteration counters are zero).
	Skipped bool
	// Attempts counts the tries the job consumed (0 for skipped and
	// replayed jobs, 1 when the first try decided it).
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
	results  chan JobResult
	wg       sync.WaitGroup
	close    sync.Once
	triage   *triageCache           // non-nil when cfg.StaticTriage
	verdicts *verdictCache          // non-nil when cfg.Verdicts
	done     map[int]*journalRecord // journaled outcomes to replay (resume)
	jw       *journalWriter         // non-nil when cfg.Journal is set
	memo     *memo.Cache            // non-nil when memoization is active
	memoBase memo.Stats             // counters at Start (delta base for shared caches)
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
		results: make(chan JobResult, cfg.queueDepth()),
		done:    done,
		jw:      jw,
	}
	e.memo = cfg.memoCache()
	e.memoBase = e.memo.Snapshot()
	if cfg.StaticTriage {
		e.triage = newTriageCache(e.memo)
	}
	if cfg.Verdicts {
		e.verdicts = newVerdictCache(e.memo)
	}
	workers := cfg.workers()
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer e.wg.Done()
			for job := range e.jobs {
				e.results <- e.runJob(job)
			}
		}()
	}
	go func() {
		e.wg.Wait()
		if e.jw != nil {
			e.jw.Close()
		}
		close(e.results)
	}()
	return e, nil
}

// Submit enqueues one job, blocking when the bounded queue is full. It
// fails (without enqueueing) once the engine's context is cancelled.
func (e *Engine) Submit(job Job) error {
	// Check cancellation first: the jobs channel is buffered, so a bare
	// select could accept a job even after the context is already done.
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("campaign: submit: %w", err)
	}
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("campaign: submit: %w", e.ctx.Err())
	case e.jobs <- job:
		return nil
	}
}

// Close ends submission; Results delivers the remaining outcomes and then
// closes. Close is idempotent.
func (e *Engine) Close() { e.close.Do(func() { close(e.jobs) }) }

// MemoCache exposes the engine's memoization cache (nil when Memo is
// off). The batch facade decodes modules through it so the module tier is
// shared with the solver and static tiers.
func (e *Engine) MemoCache() *memo.Cache { return e.memo }

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
// after Close once every submitted job has been delivered.
func (e *Engine) Results() <-chan JobResult { return e.results }

// runJob executes one campaign: journal replay, triage, then the
// retry-with-degradation loop. The whole loop runs inline in the job's
// worker — retries never reschedule — so results stay a pure function of
// the job, not of worker count or timing.
func (e *Engine) runJob(job Job) (jr JobResult) {
	start := time.Now() //wasai:nondet JobResult.Duration is reporting-only, never fed back
	jr.Job = job
	defer func() {
		if r := recover(); r != nil {
			// A panic outside an attempt (triage, bookkeeping) is terminal:
			// attempts carry their own recovery, so this one would repeat.
			jr.Result = nil
			jr.Err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
			jr.FailureClass = failure.Panic
		}
		jr.Duration = time.Since(start) //wasai:nondet reporting-only duration metric
		e.record(jr)
	}()

	if rec, ok := e.done[job.ID]; ok {
		jr = rec.toResult(job)
		return jr
	}

	if e.triage != nil && skippable(job, e.triage.report(job.Module)) {
		jr = skipResult(job)
		return jr
	}

	if e.verdicts != nil && verdictSkippable(job, e.verdicts.report(job)) {
		jr = skipResult(job)
		return jr
	}

	maxAttempts := e.cfg.Retry.maxAttempts()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res, mode, err := e.attempt(job, attempt)
		jr.Attempts = attempt + 1
		if err == nil {
			jr.Result, jr.DegradedMode = res, mode
			jr.Err, jr.FailureClass = nil, failure.None
			return jr
		}
		jr.Result = nil
		jr.Err = err
		jr.FailureClass = failure.ClassOf(err)
		if !jr.FailureClass.Retryable() || e.ctx.Err() != nil {
			break // deterministic failure, or the campaign itself is dying
		}
	}
	return jr
}

// attempt runs one try of a job under its own deadline, panic isolation,
// degradation schedule and fault-injection slice.
func (e *Engine) attempt(job Job, attempt int) (res *fuzz.Result, mode string, err error) {
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
	cfg, mode = jobConfig(job, attempt, e.cfg, e.memo, e.verdicts)
	f, err := fuzz.New(job.Module, job.ABI, cfg)
	if err != nil {
		return nil, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	res, err = f.RunContext(ctx)
	if err != nil {
		return nil, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	return res, mode, nil
}

// record appends a decided job to the journal. Jobs cancelled by the
// engine's own context are not outcomes — a resumed run must re-execute
// them — and replayed jobs are already on disk.
func (e *Engine) record(jr JobResult) {
	if e.jw == nil || jr.Replayed {
		return
	}
	if jr.Err != nil && e.ctx.Err() != nil {
		return
	}
	e.jw.append(recordOf(jr))
}

// Run shards jobs across the pool and blocks until all complete, returning
// the aggregated report with Results in job order (jobs[i] → Results[i]).
// Job IDs are assigned from slice indices, overriding any preset ID, so
// seeds are a pure function of position. Run fails only on a cancelled
// context; per-job failures are reported in Report.Results[i].Err.
func Run(ctx context.Context, jobs []Job, cfg Config) (*Report, error) {
	if cfg.Adaptive {
		// The fuel ledger needs a barrier between the two phases, which the
		// streaming engine cannot provide; the adaptive driver runs its own
		// pool over the same per-job machinery.
		return runAdaptive(ctx, jobs, cfg)
	}
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
	order := make([]Job, len(jobs))
	for i := range jobs {
		order[i] = jobs[i]
		order[i].ID = i
	}
	if e.triage != nil || e.verdicts != nil {
		// Proven-positive jobs first, then highest static score
		// (longest-job-first packing). IDs were assigned above from slice
		// positions, so the reorder is invisible to seeds and to the
		// results slice.
		order = orderJobs(order, e.triage, e.verdicts)
	}
	var submitErr error
	for _, job := range order {
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
	if e.jw != nil {
		if err := e.jw.Err(); err != nil {
			// The campaign finished but its checkpoint is unreliable;
			// surfacing that beats handing back a journal that resumes
			// wrong.
			return nil, err
		}
	}
	//wasai:nondet reporting-only wall-clock aggregate
	rep := Aggregate(results, time.Since(start))
	rep.Memo = e.MemoStats()
	return rep, nil
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
