package campaign

import (
	"encoding/binary"
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

// verdictKey identifies what absint reads of a job: its module, by
// pointer, and its ABI's action names in declaration order, 8 bytes each.
// Jobs sharing a module share the analysis whichever *abi.ABI they carry
// (the batch facade parses a fresh one per job); the memo verdict tier
// extends reuse to content-equal modules.
type verdictKey struct {
	m       *wasm.Module
	actions string
}

// verdictCache memoizes absint analysis per verdictKey in front of the
// memo verdict tier. The mutex guards only the map: each key's analysis
// runs once, outside it, so a worker that needs one module's report never
// waits behind another module's analysis.
type verdictCache struct {
	mu sync.Mutex
	//wasai:localcache pointer-identity fast path in front of the memo verdict tier
	reports map[verdictKey]*verdictEntry
	memo    *memo.Cache // nil when the engine runs without memoization
}

// verdictEntry is one key's report. The first caller analyzes under once;
// later callers for the key wait on once and read rep. An analysis that
// panics leaves rep nil, which runs the job's full dynamic campaign.
type verdictEntry struct {
	once sync.Once
	rep  *absint.Report
}

func newVerdictCache(mc *memo.Cache) *verdictCache {
	return &verdictCache{reports: map[verdictKey]*verdictEntry{}, memo: mc}
}

// report returns the job's verdict report, analyzing on first use. nil
// means the job has no module to analyze.
func (v *verdictCache) report(job Job) *absint.Report {
	if job.Module == nil {
		return nil
	}
	actions := abiActions(job.ABI)
	key := verdictKey{m: job.Module, actions: actionsKey(actions)}
	v.mu.Lock()
	e, ok := v.reports[key]
	if !ok {
		e = &verdictEntry{}
		v.reports[key] = e
	}
	v.mu.Unlock()
	e.once.Do(func() {
		// memo.Verdict is nil-safe: without a cache it just runs the
		// analysis.
		e.rep = v.memo.Verdict(job.Module, actions, absint.Analyze)
	})
	return e.rep
}

// actionsKey packs action names into a map key.
func actionsKey(actions []eos.Name) string {
	b := make([]byte, 0, 8*len(actions))
	for _, a := range actions {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	return string(b)
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
