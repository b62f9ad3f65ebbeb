package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/fuzz"
	"repro/internal/memo"
)

// chaos.go is the resilience smoke experiment: it runs the same generated
// population twice — once clean, once with seeded fault injection plus
// retry-with-degradation — and checks that the campaign absorbs the faults.
// Success means (1) zero terminal failures: every faulted job recovered on
// a retry, and (2) the jobs the plan left alone produced verdicts
// byte-identical to the clean run, i.e. injection perturbed nothing it
// wasn't aimed at. `make chaos` wires this into the repo's verify gate.

// ChaosConfig tunes the fault-injection experiment.
type ChaosConfig struct {
	NumContracts   int
	FuzzIterations int
	Seed           int64
	Workers        int
	// FaultRate is the fraction of jobs whose first attempt is faulted.
	FaultRate float64
	// MaxAttempts bounds retries; it must be ≥2 for recovery to be possible.
	MaxAttempts int
}

// DefaultChaosConfig is the verify-gate smoke shape: small population,
// heavy (20%) fault rate, one degraded retry available per fault.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		NumContracts:   24,
		FuzzIterations: 60,
		Seed:           7,
		FaultRate:      0.2,
		MaxAttempts:    3,
	}
}

// ChaosResult reports how the campaign behaved under injected faults.
type ChaosResult struct {
	Total int
	// Faulted counts jobs the plan injected into; PerKind breaks the
	// injections down by fault kind.
	Faulted int
	PerKind map[faultinject.Kind]int
	// Recovered counts faulted jobs that still completed with a verdict
	// (necessarily on a degraded retry for fault kinds that fail the job).
	Recovered int
	Degraded  int
	Retried   int
	// TerminalFailures and PerFailure count jobs that stayed failed after
	// all retries — the experiment's first failure condition.
	TerminalFailures int
	PerFailure       map[failure.Class]int
	// VerdictMismatches counts un-faulted jobs whose verdicts differ from
	// the clean baseline run — the second failure condition (injection
	// must not leak into jobs it didn't target).
	VerdictMismatches int
}

// Passed reports whether the campaign absorbed the injected faults.
func (r *ChaosResult) Passed() bool {
	return r.TerminalFailures == 0 && r.VerdictMismatches == 0
}

// EvaluateChaos runs the clean baseline and the faulted campaign over the
// same population and compares them.
func EvaluateChaos(cfg ChaosConfig) (*ChaosResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(cfg.NumContracts), rng)
	if err != nil {
		return nil, err
	}
	makeJobs := func() []campaign.Job {
		jobs := make([]campaign.Job, len(pop))
		for i := range pop {
			jobs[i] = campaign.Job{
				Name:   pop[i].Name.String(),
				Module: pop[i].Contract.Module,
				ABI:    pop[i].Contract.ABI,
				Config: fuzz.Config{
					Iterations:      cfg.FuzzIterations,
					SolverConflicts: 50_000,
					Seed:            cfg.Seed + int64(i),
				},
			}
		}
		return jobs
	}

	base, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("bench: chaos baseline: %w", err)
	}

	plan := &faultinject.Plan{Seed: cfg.Seed, Rate: cfg.FaultRate}
	// The faulted leg runs with the cache on (the clean baseline runs
	// cache-off), so the verdict comparison also proves fault×memo
	// hygiene: faulted attempts bypass the cache entirely (no reads, no
	// writes, no hit accounting — see internal/memo), so an injected
	// fault can never poison results shared with clean jobs.
	faulted, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{
		Workers: cfg.Workers,
		Faults:  plan,
		Retry:   campaign.RetryPolicy{MaxAttempts: cfg.MaxAttempts},
		Memo:    memo.ModeOn,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: chaos faulted run: %w", err)
	}

	res := &ChaosResult{
		Total:      len(pop),
		PerKind:    map[faultinject.Kind]int{},
		PerFailure: map[failure.Class]int{},
		Degraded:   faulted.Degraded,
		Retried:    faulted.Retried,
	}
	for i := range pop {
		bjr, fjr := base.Results[i], faulted.Results[i]
		inj := plan.For(fjr.Job.ID, 0)
		if inj != nil {
			res.Faulted++
			res.PerKind[inj.Kind()]++
		}
		if fjr.Err != nil {
			res.TerminalFailures++
			res.PerFailure[failureClassOf(fjr)]++
			continue
		}
		if inj != nil {
			res.Recovered++
			// A faulted job's accepted result came from a degraded retry;
			// its verdict legitimately may differ from baseline, so it is
			// exempt from the mismatch check.
			continue
		}
		if bjr.Err != nil {
			continue // baseline itself failed; nothing to compare against
		}
		for _, cl := range contractgen.Classes {
			if bjr.Result.Report.Vulnerable[cl] != fjr.Result.Report.Vulnerable[cl] {
				res.VerdictMismatches++
				break
			}
		}
	}
	return res, nil
}

// RenderChaos prints the experiment summary.
func RenderChaos(r *ChaosResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos — campaign resilience under fault injection (%d contracts)\n", r.Total)
	fmt.Fprintf(&sb, "faulted: %d jobs", r.Faulted)
	if r.Faulted > 0 {
		parts := make([]string, 0, len(faultinject.AllKinds))
		for _, k := range faultinject.AllKinds {
			if n := r.PerKind[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, n))
			}
		}
		fmt.Fprintf(&sb, " (%s)", strings.Join(parts, ", "))
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "recovered: %d/%d faulted jobs completed after retry (%d retried, %d degraded)\n",
		r.Recovered, r.Faulted, r.Retried, r.Degraded)
	fmt.Fprintf(&sb, "terminal failures: %d\n", r.TerminalFailures)
	for _, cl := range failure.Classes {
		if n := r.PerFailure[cl]; n > 0 {
			fmt.Fprintf(&sb, "  failures[%s] %d\n", cl, n)
		}
	}
	if n := r.PerFailure[failure.Unclassified]; n > 0 {
		fmt.Fprintf(&sb, "  failures[%s] %d\n", failure.Unclassified, n)
	}
	fmt.Fprintf(&sb, "verdict mismatches on un-faulted jobs: %d\n", r.VerdictMismatches)
	if r.Passed() {
		sb.WriteString("chaos: PASS — all faults absorbed, un-faulted verdicts unchanged\n")
	} else {
		sb.WriteString("chaos: FAIL\n")
	}
	return sb.String()
}
