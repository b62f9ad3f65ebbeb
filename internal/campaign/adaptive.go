package campaign

import (
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/schedule"
)

// adaptive.go holds the per-job state of Config.Adaptive (ROADMAP item 3:
// findings-per-CPU-second as the scheduling objective). The engine runs
// every job's phase 1 with the intra-job power schedule, stopping early at
// saturation, and parks the job with its fuzzer open. Once Close has been
// called and every submitted job has settled, the fuel ledger
// (schedule.Reallocate) pools the saturated jobs' unspent iterations and
// regrants them to still-progressing jobs; phase 2 resumes the parked
// fuzzers — same coverage, seed energies, DBG and scanner state — and
// finishes each one (scenario pass + result).
//
// Determinism: the grant a job receives is a pure function of the phase-1
// summaries, which are themselves pure functions of (job, seed) — so the
// campaign is digest-identical at any worker count, through Run or the
// streaming Engine. Kill+resume holds because a job is journaled only once
// it is final (never between phases) and every parked job's record carries
// its phase-1 summary, so a resumed run recomputes the identical ledger
// from replayed summaries plus live ones. (A consequence: an adaptive
// campaign must resume from an adaptive journal — records without phase
// summaries contribute nothing to the ledger, as with a job that failed
// before completing phase 1.)

// jobConfig resolves the effective fuzz configuration of one attempt.
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

// liveJob carries one job through the engine: its JobResult, and for an
// adaptive job the fuzzer that parked after phase 1, its phase-1 summary
// and the grant the fuel ledger gave it.
type liveJob struct {
	job    Job
	jr     JobResult
	f      *fuzz.Fuzzer     // non-nil once phase 1 parked the job
	phase  fuzz.PhaseReport // phase-1 summary (ledger input)
	rec    *journalRecord   // non-nil when replayed from a resume journal
	parked bool             // f waits, open, for its grant
	grant  int              // the fuel ledger's extra iterations
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
