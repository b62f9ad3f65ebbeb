package serve

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/faultinject"
	"repro/internal/fuzz"
	"repro/internal/memo"
)

// JobSpec is one analysis campaign as submitted over the wire: a
// deterministic description of a generated contract population plus the
// engine configuration to fuzz it under. Everything that influences
// findings is in the spec (population seed, budgets, fault plan), so the
// same spec always produces the same digests — which is what lets a
// restarted daemon prove it resumed correctly, and lets clients dedupe
// retried submissions by comparing results.
type JobSpec struct {
	// Tenant names the submitting principal for admission control;
	// empty is the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Name labels the job in listings (optional, no semantics).
	Name string `json:"name,omitempty"`
	// Contracts is the wild-population size; Seed draws it (and derives
	// the per-contract fuzzing seeds).
	Contracts int   `json:"contracts"`
	Seed      int64 `json:"seed"`
	// Iterations is the per-contract fuzzing budget (0 = the paper's 240).
	Iterations int `json:"iterations,omitempty"`
	// Workers sizes the campaign's worker pool (0 = GOMAXPROCS).
	// Findings are identical for any value.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS is the per-contract deadline in milliseconds (0 = none);
	// MaxAttempts enables retry-with-degradation for contracts that blow
	// it (or fail transiently).
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
	MaxAttempts int   `json:"max_attempts,omitempty"`
	// FaultRate injects seeded faults into that fraction of first
	// attempts (see internal/faultinject) — the chaos-testing surface.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Memo selects the cross-job cache scope; digest-neutral.
	Memo string `json:"memo,omitempty"`
	// Adaptive turns on the coverage-driven scheduling layer (power
	// schedules + campaign fuel ledger). Not digest-neutral against a
	// non-adaptive run — it changes which inputs are fuzzed — but still
	// deterministic: the same spec yields the same adaptive digest at any
	// worker count and across daemon restarts.
	Adaptive bool `json:"adaptive,omitempty"`
}

// Validate rejects specs the daemon cannot run deterministically or that
// would exhaust it.
func (s *JobSpec) Validate() error {
	if s.Contracts <= 0 {
		return fmt.Errorf("spec: contracts must be positive") //wasai:rawerr request validation, surfaced as HTTP 400
	}
	if s.Contracts > 10_000 {
		return fmt.Errorf("spec: contracts capped at 10000") //wasai:rawerr request validation, surfaced as HTTP 400
	}
	if s.FaultRate < 0 || s.FaultRate > 1 {
		return fmt.Errorf("spec: fault_rate must be in [0,1]") //wasai:rawerr request validation, surfaced as HTTP 400
	}
	if _, err := memo.ParseMode(s.Memo); err != nil {
		return err
	}
	return nil
}

// BuildJobs draws the spec's population. It is a pure function of the
// spec: the daemon, a resumed daemon, and an offline reference run all
// rebuild the identical job list.
func BuildJobs(spec JobSpec) ([]campaign.Job, error) {
	iters := spec.Iterations
	if iters == 0 {
		iters = 240
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(spec.Contracts), rng)
	if err != nil {
		return nil, fmt.Errorf("serve: population: %w", err)
	}
	jobs := make([]campaign.Job, len(pop))
	for i := range pop {
		jobs[i] = campaign.Job{
			Name:   pop[i].Name.String(),
			Module: pop[i].Contract.Module,
			ABI:    pop[i].Contract.ABI,
			Config: fuzz.Config{
				Iterations:      iters,
				SolverConflicts: 50_000,
				Seed:            spec.Seed + int64(i),
			},
		}
	}
	return jobs, nil
}

// CampaignConfig maps the spec onto the engine configuration. journal is
// the job's checkpoint path ("" = unjournaled, for offline reference
// runs); cache, when non-nil, overrides the memo scope (the daemon passes
// its process-wide cache so jobs share tiers and the attached disk store).
func CampaignConfig(spec JobSpec, journal string, resume bool, cache *memo.Cache) campaign.Config {
	mode, _ := memo.ParseMode(spec.Memo) // Validate already vetted it
	cfg := campaign.Config{
		Workers:    spec.Workers,
		BaseSeed:   spec.Seed,
		JobTimeout: time.Duration(spec.TimeoutMS) * time.Millisecond,
		Retry:      campaign.RetryPolicy{MaxAttempts: spec.MaxAttempts},
		Journal:    journal,
		Resume:     resume,
		Memo:       mode,
		Adaptive:   spec.Adaptive,
	}
	if cache != nil && mode != memo.ModeOff {
		cfg.MemoCache = cache
	}
	if spec.FaultRate > 0 {
		cfg.Faults = &faultinject.Plan{Seed: spec.Seed, Rate: spec.FaultRate}
	}
	return cfg
}

// RunSpec executes a spec end to end and returns the campaign report.
// This one function is the daemon's runner, the crash test's reference
// leg and the servechaos bench's oracle — all three must agree byte-for-
// byte on digests, so they share the spec→campaign mapping by
// construction.
func RunSpec(ctx context.Context, spec JobSpec, journal string, resume bool, cache *memo.Cache) (*campaign.Report, error) {
	jobs, err := BuildJobs(spec)
	if err != nil {
		return nil, err
	}
	return campaign.Run(ctx, jobs, CampaignConfig(spec, journal, resume, cache))
}
