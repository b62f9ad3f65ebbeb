package campaign

import (
	"sync"

	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/scanner"
	"repro/internal/static/absint"
	"repro/internal/wasm"
)

// verdicts.go wires the abstract-interpretation verdict engine
// (internal/static/absint) into the campaign as its only pre-execution
// triage. The engine proves three-valued per-class verdicts, and the
// campaign consumes exactly the two proof directions:
//
//   - a job with every class ProvenNegative — the five trace-oracle
//     classes and the three on-chain-data scenario classes — is answered
//     with a synthesized all-clean result (each negative proof says the
//     dynamic oracle cannot fire on any harness execution, scenario
//     replays included, so the job's findings-digest line is unchanged);
//   - a job with any ProvenPositive class is scheduled confirmed-first
//     (reordering is digest-invisible: seeds derive from job IDs).
//
// Everything else — Unknown verdicts, jobs with custom detectors or trace
// capture — runs the full dynamic campaign unchanged.

// verdictKey identifies one (module, ABI) pair by pointer. Jobs sharing
// decoded forms (ablations, seed sweeps, memoized decodes) share the
// analysis; the memo verdict tier extends reuse to content-equal modules.
type verdictKey struct {
	m *wasm.Module
	a *abi.ABI
}

// verdictCache memoizes absint analysis per (module, ABI) pointer pair in
// front of the memo verdict tier.
type verdictCache struct {
	mu sync.Mutex
	//wasai:localcache pointer-identity fast path in front of the memo verdict tier
	reports map[verdictKey]*absint.Report
	memo    *memo.Cache // nil when the engine runs without memoization
}

func newVerdictCache(mc *memo.Cache) *verdictCache {
	return &verdictCache{reports: map[verdictKey]*absint.Report{}, memo: mc}
}

// report returns the job's verdict report, analyzing on first use. nil
// means the job has no module to analyze.
func (v *verdictCache) report(job Job) *absint.Report {
	if job.Module == nil {
		return nil
	}
	key := verdictKey{m: job.Module, a: job.ABI}
	v.mu.Lock()
	defer v.mu.Unlock()
	if rep, ok := v.reports[key]; ok {
		return rep
	}
	// memo.Verdict is nil-safe: without a cache it just runs the analysis.
	rep := v.memo.Verdict(job.Module, abiActions(job.ABI), absint.Analyze)
	v.reports[key] = rep
	return rep
}

// abiActions lists the ABI's action names in declaration order (the same
// order the fuzzer derives its action list, so MissAuth quantifies over
// identical scopes statically and dynamically).
func abiActions(a *abi.ABI) []eos.Name {
	if a == nil {
		return nil
	}
	out := make([]eos.Name, 0, len(a.Actions))
	for _, act := range a.Actions {
		out = append(out, act.Name)
	}
	return out
}

// verdictSkippable reports whether the verdict report licenses answering
// the job without execution: every class proven negative, and no observer
// (custom detector, trace capture) the proofs say nothing about.
func verdictSkippable(job Job, rep *absint.Report) bool {
	if rep == nil || !rep.AllNegative() {
		return false
	}
	return len(job.Config.CustomDetectors) == 0 && !job.Config.KeepTraces
}

// skipResult synthesizes the outcome of a provably-negative job: the verdict
// the dynamic run would have produced (all classes clean), zero work done.
func skipResult(job Job) JobResult {
	return JobResult{
		Job:     job,
		Skipped: true,
		Result: &fuzz.Result{
			Report: scanner.NewReport(),
			Custom: map[string]bool{},
		},
	}
}

// orderJobs moves proven-positive jobs to the front (confirmed findings
// surface immediately) and keeps the submission order within each part.
// Reordering cannot change findings: seeds derive from job IDs (which are
// preserved), results are indexed by ID, and jobs share no state.
func orderJobs(jobs []Job, v *verdictCache) []Job {
	var positive, rest []Job
	for _, job := range jobs {
		if rep := v.report(job); rep != nil && rep.AnyPositive() {
			positive = append(positive, job)
		} else {
			rest = append(rest, job)
		}
	}
	return append(positive, rest...)
}
