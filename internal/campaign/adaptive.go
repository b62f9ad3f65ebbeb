package campaign

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/schedule"
)

// adaptive.go is the two-phase adaptive campaign driver behind
// Config.Adaptive (ROADMAP item 3: findings-per-CPU-second as the
// scheduling objective). Phase 1 runs every job with the intra-job power
// schedule, stopping early at saturation; at the barrier the fuel ledger
// (schedule.Reallocate) pools the saturated jobs' unspent iterations and
// regrants them to still-progressing jobs; phase 2 resumes the granted
// fuzzers — same coverage, seed energies, DBG and scanner state — and
// finishes everyone (scenario pass + result).
//
// Determinism: the grant a job receives is a pure function of the phase-1
// summaries, which are themselves pure functions of (job, seed) — so the
// campaign is digest-identical at any worker count. Kill+resume holds
// because records are journaled only after a job is final (never between
// phases) and every executed job's record carries its phase-1 summary, so
// a resumed run recomputes the identical ledger from replayed summaries
// plus live ones. (A consequence: an adaptive campaign must resume from an
// adaptive journal — records without phase summaries contribute nothing to
// the ledger, as with a job that failed before completing phase 1.)

// jobConfig resolves the effective fuzz configuration of one attempt — the
// per-attempt derivation shared by the streaming engine and the adaptive
// driver.
func jobConfig(job Job, attempt int, cc Config, mc *memo.Cache) (fuzz.Config, string) {
	cfg := job.Config
	if cfg.Seed == 0 {
		cfg.Seed = cc.BaseSeed + int64(job.ID)
	}
	cfg, mode := degrade(cfg, attempt)
	if cc.Faults != nil {
		cfg.Faults = cc.Faults.For(job.ID, attempt)
	}
	if cfg.Faults == nil {
		// Faulted attempts run without the memo (the solver pool enforces
		// the same rule independently): a result shaped by an injected
		// fault must never reach the shared cache, and no hit may be
		// served — or counted — on a faulted attempt.
		cfg.Memo = mc.SolverMemo()
	}
	if cc.Adaptive {
		cfg.Adaptive = true
		if cfg.SaturationWindow == 0 {
			cfg.SaturationWindow = cc.SaturationWindow
		}
	}
	return cfg, mode
}

// liveJob carries one job across the two phases: the still-open fuzzer and
// its phase-1 summary between the barrier, and the final JobResult after.
type liveJob struct {
	job   Job
	jr    JobResult
	f     *fuzz.Fuzzer     // non-nil after a successful phase 1
	phase fuzz.PhaseReport // phase-1 summary (ledger input)
	rec   *journalRecord   // non-nil when replayed from a resume journal
	final bool             // jr is complete; the job skips phase 2
}

// ledgerPhase derives the job's fuel-ledger input: from the live phase-1
// summary, or — on resume — from the journaled one.
func (lj *liveJob) ledgerPhase() (schedule.JobPhase, bool) {
	if lj.rec != nil {
		s := lj.rec.Sched
		if s == nil || !s.Executed {
			return schedule.JobPhase{}, false
		}
		return schedule.JobPhase{
			ID:          lj.job.ID,
			Executed:    true,
			Saturated:   s.P1Saturated,
			FuelUnspent: s.Unspent,
			Coverage:    s.P1Coverage,
			Iterations:  s.P1Iters,
			MaxGrant:    lj.job.Config.Iterations,
		}, true
	}
	if lj.f == nil {
		return schedule.JobPhase{}, false
	}
	return schedule.JobPhase{
		ID:          lj.job.ID,
		Executed:    true,
		Saturated:   lj.phase.Saturated,
		FuelUnspent: lj.phase.FuelUnspent,
		Coverage:    lj.phase.Coverage,
		Iterations:  lj.phase.Iterations,
		// A job can at most double its budget: the cap keeps one deep
		// contract from absorbing the whole pool.
		MaxGrant: lj.job.Config.Iterations,
	}, true
}

// adaptiveRun bundles the driver's shared state.
type adaptiveRun struct {
	cfg      Config
	done     map[int]*journalRecord
	jw       *journalWriter
	memo     *memo.Cache
	memoBase memo.Stats
	verdicts *verdictCache
}

// runAdaptive is Run's Config.Adaptive implementation.
func runAdaptive(ctx context.Context, jobs []Job, cfg Config) (*Report, error) {
	start := time.Now() //wasai:nondet Report.Wall is reporting-only, never fed back
	done, jw, err := openJournal(cfg)
	if err != nil {
		return nil, err
	}
	a := &adaptiveRun{cfg: cfg, done: done, jw: jw}
	a.memo = cfg.memoCache()
	a.memoBase = a.memo.Snapshot()
	if cfg.Verdicts {
		a.verdicts = newVerdictCache(a.memo)
	}

	order := make([]Job, len(jobs))
	for i := range jobs {
		order[i] = jobs[i]
		order[i].ID = i
	}
	if a.verdicts != nil {
		order = orderJobs(order, a.verdicts)
	}

	bail := func(err error) (*Report, error) {
		if a.jw != nil {
			a.jw.Close()
		}
		return nil, fmt.Errorf("campaign: %w", err)
	}

	// Phase 1: every job up to its own budget (or saturation).
	live := make([]*liveJob, len(jobs))
	a.each(ctx, order, func(job Job) { live[job.ID] = a.phase1(ctx, job) })
	if err := ctx.Err(); err != nil {
		return bail(err)
	}

	// Fuel-ledger barrier: a pure function of the phase-1 summaries.
	phases := make([]schedule.JobPhase, 0, len(live))
	for _, lj := range live {
		if p, ok := lj.ledgerPhase(); ok {
			phases = append(phases, p)
		}
	}
	grants, stats := schedule.Reallocate(phases)

	// Phase 2: resume granted fuzzers, finish everyone still open.
	var pending []Job
	for _, job := range order {
		if !live[job.ID].final {
			pending = append(pending, job)
		}
	}
	a.each(ctx, pending, func(job Job) { a.phase2(ctx, live[job.ID], grants[job.ID]) })
	if err := ctx.Err(); err != nil {
		return bail(err)
	}

	results := make([]JobResult, len(jobs))
	for i, lj := range live {
		results[i] = lj.jr
		a.record(ctx, lj, grants[lj.job.ID])
	}
	if a.jw != nil {
		a.jw.Close()
		if err := a.jw.Err(); err != nil {
			// The campaign finished but its checkpoint is unreliable;
			// surfacing that beats handing back a journal that resumes
			// wrong.
			return nil, err
		}
	}
	//wasai:nondet reporting-only wall-clock aggregate
	rep := Aggregate(results, time.Since(start))
	rep.Sched.FuelReturned = stats.Returned
	rep.Sched.FuelReallocated = stats.Reallocated
	rep.Sched.SaturatedJobs = stats.Saturated
	if a.memo != nil {
		d := a.memo.Snapshot().Sub(a.memoBase)
		rep.Memo = &d
	}
	return rep, nil
}

// each fans jobs over the worker pool and waits for all of them. Every fn
// call writes only its own job's state, so the pool adds no ordering
// effects.
func (a *adaptiveRun) each(ctx context.Context, jobs []Job, fn func(Job)) {
	workers := a.cfg.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				fn(job)
			}
		}()
	}
loop:
	for _, job := range jobs {
		select {
		case <-ctx.Done():
			break loop
		case ch <- job:
		}
	}
	close(ch)
	wg.Wait()
}

// phase1 decides a job up to the barrier: journal replay, the verdict
// skip, then the retry loop around RunPhase. On success the fuzzer stays
// open for phase 2.
func (a *adaptiveRun) phase1(ctx context.Context, job Job) (lj *liveJob) {
	start := time.Now() //wasai:nondet JobResult.Duration is reporting-only, never fed back
	lj = &liveJob{job: job}
	lj.jr.Job = job
	defer func() {
		if r := recover(); r != nil {
			// A panic outside an attempt (verdicts, bookkeeping) is terminal:
			// attempts carry their own recovery, so this one would repeat.
			lj.f, lj.jr.Result = nil, nil
			lj.jr.Err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
			lj.jr.FailureClass = failure.Panic
			lj.final = true
		}
		lj.jr.Duration = time.Since(start) //wasai:nondet reporting-only duration metric
	}()

	if rec, ok := a.done[job.ID]; ok {
		lj.jr = rec.toResult(job)
		lj.rec = rec
		lj.final = true
		return lj
	}
	if a.verdicts != nil && verdictSkippable(job, a.verdicts.report(job)) {
		lj.jr = skipResult(job)
		lj.final = true
		return lj
	}

	maxAttempts := a.cfg.Retry.maxAttempts()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		f, phase, mode, err := a.phase1Attempt(ctx, job, attempt)
		lj.jr.Attempts = attempt + 1
		if err == nil {
			lj.f, lj.phase = f, phase
			lj.jr.DegradedMode = mode
			lj.jr.Err, lj.jr.FailureClass = nil, failure.None
			return lj
		}
		lj.jr.Result = nil
		lj.jr.Err = err
		lj.jr.FailureClass = failure.ClassOf(err)
		if !lj.jr.FailureClass.Retryable() || ctx.Err() != nil {
			break // deterministic failure, or the campaign itself is dying
		}
	}
	lj.final = true
	return lj
}

// phase1Attempt runs one try's phase 1 under the per-attempt deadline and
// panic isolation, returning the open fuzzer.
func (a *adaptiveRun) phase1Attempt(ctx context.Context, job Job, attempt int) (f *fuzz.Fuzzer, phase fuzz.PhaseReport, mode string, err error) {
	defer func() {
		if r := recover(); r != nil {
			f = nil
			err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if a.cfg.JobTimeout > 0 {
		// Each phase gets the full deadline, mirroring the per-attempt
		// deadline of the streaming engine.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.JobTimeout)
		defer cancel()
	}
	var cfg fuzz.Config
	cfg, mode = jobConfig(job, attempt, a.cfg, a.memo)
	f, err = fuzz.New(job.Module, job.ABI, cfg)
	if err != nil {
		return nil, phase, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	phase, err = f.RunPhase(ctx)
	if err != nil {
		return nil, phase, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	return f, phase, mode, nil
}

// phase2 spends the job's ledger grant and finalizes it. A failure here
// retries the whole job from scratch at the next degradation step, with the
// same grant — the ledger's decision is fixed at the barrier.
func (a *adaptiveRun) phase2(ctx context.Context, lj *liveJob, grant int) {
	start := time.Now() //wasai:nondet JobResult.Duration is reporting-only, never fed back
	defer func() {
		if r := recover(); r != nil {
			lj.jr.Result = nil
			lj.jr.Err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
			lj.jr.FailureClass = failure.Panic
		}
		lj.jr.Duration += time.Since(start) //wasai:nondet reporting-only duration metric
		lj.final = true
	}()

	res, err := a.finishAttempt(ctx, lj.job, lj.f, grant)
	if err == nil {
		lj.jr.Result = res
		lj.jr.Err, lj.jr.FailureClass = nil, failure.None
		return
	}
	lj.jr.Result, lj.jr.Err, lj.jr.FailureClass = nil, err, failure.ClassOf(err)

	maxAttempts := a.cfg.Retry.maxAttempts()
	for lj.jr.FailureClass.Retryable() && ctx.Err() == nil && lj.jr.Attempts < maxAttempts {
		attempt := lj.jr.Attempts
		res, mode, err := a.fullAttempt(ctx, lj.job, attempt, grant)
		lj.jr.Attempts = attempt + 1
		if err == nil {
			lj.jr.Result, lj.jr.DegradedMode = res, mode
			lj.jr.Err, lj.jr.FailureClass = nil, failure.None
			return
		}
		lj.jr.Result, lj.jr.Err, lj.jr.FailureClass = nil, err, failure.ClassOf(err)
	}
}

// finishAttempt resumes an open fuzzer: spend the grant, then the scenario
// pass and result assembly.
func (a *adaptiveRun) finishAttempt(ctx context.Context, job Job, f *fuzz.Fuzzer, grant int) (res *fuzz.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if a.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.JobTimeout)
		defer cancel()
	}
	if grant > 0 {
		if _, err := f.ContinuePhase(ctx, grant); err != nil {
			return nil, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
		}
	}
	res, err = f.Finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	return res, nil
}

// fullAttempt is the phase-2 retry path: both phases and the finish in one
// go, on a fresh fuzzer at the attempt's degradation step.
func (a *adaptiveRun) fullAttempt(ctx context.Context, job Job, attempt, grant int) (res *fuzz.Result, mode string, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = failure.Wrap(failure.Panic, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if a.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.JobTimeout)
		defer cancel()
	}
	var cfg fuzz.Config
	cfg, mode = jobConfig(job, attempt, a.cfg, a.memo)
	f, err := fuzz.New(job.Module, job.ABI, cfg)
	if err != nil {
		return nil, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	if _, err := f.RunPhase(ctx); err != nil {
		return nil, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	if grant > 0 {
		if _, err := f.ContinuePhase(ctx, grant); err != nil {
			return nil, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
		}
	}
	res, err = f.Finish(ctx)
	if err != nil {
		return nil, mode, fmt.Errorf("campaign: job %d (%s): %w", job.ID, job.Name, err)
	}
	return res, mode, nil
}

// record journals one finalized job, attaching the phase-1 summary and the
// grant so a resumed campaign can recompute the identical ledger. The same
// exclusions as the streaming engine apply: replayed jobs are already on
// disk, and cancellation casualties are not outcomes.
func (a *adaptiveRun) record(ctx context.Context, lj *liveJob, grant int) {
	if a.jw == nil || lj.jr.Replayed {
		return
	}
	if lj.jr.Err != nil && ctx.Err() != nil {
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
		rec.Sched.Grant = grant
	}
	a.jw.append(rec)
}
