package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/schedule"
	"repro/internal/wal"
)

// adaptive.go is the adaptive-scheduling experiment behind `wasai-bench
// -exp adaptive` (part of `make verify`). It holds the scheduling layer to
// its three contracted properties at once:
//
// Leg 1 (budget differential) fuzzes several generated corpora with the
// schedule off and on under the SAME per-contract iteration budget. The
// gate requires that, on every corpus, the adaptive run explores at least
// as many branches and scores at least as many TRUE positives against the
// generator's ground truth as the static round-robin — and that at least
// one corpus is STRICTLY better on coverage, so the layer demonstrably
// buys something. Findings are scored against ground truth rather than as
// raw flag counts because deeper exploration can legitimately RETRACT a
// static false positive: the timeout-closed Fake Notif oracle flags any
// contract whose guard was never observed, and a static run that never
// solves the verification branches in front of a real `to != _self` guard
// flags a guarded contract that the adaptive run correctly exonerates.
// The adaptive run may execute fewer iterations (saturation returns fuel
// the ledger could not place), never more.
//
// Leg 2 (determinism) repeats one corpus' adaptive campaign at several
// worker counts and requires byte-identical state digests: every
// scheduling decision is a pure function of (seed, observed coverage), so
// worker scheduling must be invisible.
//
// Leg 3 (kill+resume) journals an adaptive campaign, truncates the journal
// to a prefix — the durable state an actual SIGKILL leaves behind — and
// resumes. The resumed run must replay the prefix, re-run the rest, and
// converge on the uninterrupted run's state digest, proving the fuel
// ledger reconstructs identical grants from journaled phase-1 summaries.

// AdaptiveConfig tunes the adaptive-scheduling experiment.
type AdaptiveConfig struct {
	// Corpora is how many independent corpora the off/on budget
	// differential compares; ContractsPerCorpus sizes each.
	Corpora            int
	ContractsPerCorpus int
	// FuzzIterations is the per-contract budget of BOTH legs of the
	// differential — the comparison is work-normalized by construction.
	FuzzIterations int
	Seed           int64
	// Workers is the pool size of the differential legs; WorkerCounts are
	// the pool sizes of the adaptive digest-identity leg.
	WorkerCounts []int
	Workers      int
}

// DefaultAdaptiveConfig is the acceptance-gate shape: three corpora over
// the verification-heavy class mix (branchy contracts where steering has
// room to matter) and the 1/4/8 worker counts of the determinism suite.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Corpora:            3,
		ContractsPerCorpus: 8,
		FuzzIterations:     160,
		Seed:               11,
		WorkerCounts:       []int{1, 4, 8},
		Workers:            4,
	}
}

// AdaptiveCorpusRun is one corpus' off/on comparison.
type AdaptiveCorpusRun struct {
	Corpus int
	// StaticCoverage / AdaptiveCoverage sum distinct branches per job.
	StaticCoverage, AdaptiveCoverage int
	// StaticTP / AdaptiveTP count contracts whose own-class verdict matches
	// a vulnerable ground truth; StaticFP / AdaptiveFP count own-class
	// flags on safe contracts (the metric the accuracy tables use, so a
	// retracted false positive is an improvement, not a lost finding).
	StaticTP, AdaptiveTP int
	StaticFP, AdaptiveFP int
	// StaticIters / AdaptiveIters sum executed iterations (the adaptive
	// side may be lower — returned fuel the ledger could not place).
	StaticIters, AdaptiveIters int
	// Sched is the adaptive run's scheduler-counter total.
	Sched schedule.Counters
}

// AdaptiveResult aggregates the experiment.
type AdaptiveResult struct {
	Runs []AdaptiveCorpusRun
	// DigestMatch is the determinism leg: adaptive state digests identical
	// at every worker count (on the first corpus).
	DigestMatch bool
	// ResumeMatch is the kill+resume leg: the resumed adaptive campaign's
	// state digest equals the uninterrupted one's; ResumeReplayed counts
	// the journal-replayed jobs (must be >0 for the leg to mean anything).
	ResumeMatch    bool
	ResumeReplayed int
}

// CoverageNeverWorse reports leg-1's floor: every corpus' adaptive
// coverage ≥ its static coverage.
func (r *AdaptiveResult) CoverageNeverWorse() bool {
	for _, run := range r.Runs {
		if run.AdaptiveCoverage < run.StaticCoverage {
			return false
		}
	}
	return true
}

// FindingsNeverWorse reports that no corpus lost a true positive: every
// ground-truth vulnerability the static schedule found, the adaptive
// schedule found too.
func (r *AdaptiveResult) FindingsNeverWorse() bool {
	for _, run := range r.Runs {
		if run.AdaptiveTP < run.StaticTP {
			return false
		}
	}
	return true
}

// StrictlyBetter reports that at least one corpus gained coverage.
func (r *AdaptiveResult) StrictlyBetter() bool {
	for _, run := range r.Runs {
		if run.AdaptiveCoverage > run.StaticCoverage {
			return true
		}
	}
	return false
}

// BudgetRespected reports that no corpus executed more iterations
// adaptively than statically (equal configured budgets; saturation may
// only return fuel, never mint it).
func (r *AdaptiveResult) BudgetRespected() bool {
	for _, run := range r.Runs {
		if run.AdaptiveIters > run.StaticIters {
			return false
		}
	}
	return true
}

// Passed is the acceptance gate.
func (r *AdaptiveResult) Passed() bool {
	return r.CoverageNeverWorse() && r.FindingsNeverWorse() && r.StrictlyBetter() &&
		r.BudgetRespected() && r.DigestMatch && r.ResumeMatch && r.ResumeReplayed > 0
}

// adaptiveTruth is one corpus contract's ground truth: the class it was
// generated for and whether that class's vulnerability is reachable.
type adaptiveTruth struct {
	Class contractgen.Class
	Truth bool
}

// adaptiveCorpus draws one corpus: the verification-heavy mix the memo
// experiment uses, where branch structure is rich enough that
// steering the budget can matter. The returned truths parallel the
// contracts, so leg 1 can score verdicts the way the accuracy tables do.
func adaptiveCorpus(cfg AdaptiveConfig, corpus int) ([]*contractgen.Contract, []adaptiveTruth, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(1000*corpus)))
	contracts := make([]*contractgen.Contract, 0, cfg.ContractsPerCorpus)
	truths := make([]adaptiveTruth, 0, cfg.ContractsPerCorpus)
	for d := 0; d < cfg.ContractsPerCorpus; d++ {
		class := contractgen.Classes[(corpus+d)%len(contractgen.Classes)]
		spec := contractgen.RandomSpec(class, d%2 == 0, rng)
		spec.Verification = randomVerification(rng, &spec)
		c, err := contractgen.Generate(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: adaptive corpus %d/%d: %w", corpus, d, err)
		}
		contracts = append(contracts, c)
		truths = append(truths, adaptiveTruth{Class: spec.Class, Truth: spec.GroundTruth()})
	}
	return contracts, truths, nil
}

// scoreAdaptive tallies own-class true/false positives for one run.
func scoreAdaptive(rep *campaign.Report, truths []adaptiveTruth) (tp, fp int, err error) {
	for i, jr := range rep.Results {
		if jr.Err != nil {
			return 0, 0, jr.Err
		}
		verdict := jr.Result.Report.Vulnerable[truths[i].Class]
		switch {
		case verdict && truths[i].Truth:
			tp++
		case verdict && !truths[i].Truth:
			fp++
		}
	}
	return tp, fp, nil
}

// adaptiveJobs lays a corpus out as campaign jobs under one fixed budget.
func adaptiveJobs(cfg AdaptiveConfig, corpus int, contracts []*contractgen.Contract) []campaign.Job {
	jobs := make([]campaign.Job, len(contracts))
	for i, c := range contracts {
		jobs[i] = campaign.Job{
			Name:   fmt.Sprintf("adaptive-%d-%d", corpus, i),
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{
				Iterations:      cfg.FuzzIterations,
				SolverConflicts: 50_000,
				Seed:            cfg.Seed + int64(100*corpus+i),
			},
		}
	}
	return jobs
}

// coverageSum totals per-job distinct branches (jobs with errors fail the
// experiment before this is read).
func coverageSum(rep *campaign.Report) (int, error) {
	total := 0
	for _, jr := range rep.Results {
		if jr.Err != nil {
			return 0, jr.Err
		}
		total += jr.Result.Coverage
	}
	return total, nil
}

// EvaluateAdaptive runs all three legs.
func EvaluateAdaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	workerCounts := cfg.WorkerCounts
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	res := &AdaptiveResult{DigestMatch: true}
	var firstCorpus []*contractgen.Contract
	for c := 0; c < cfg.Corpora; c++ {
		contracts, truths, err := adaptiveCorpus(cfg, c)
		if err != nil {
			return nil, err
		}
		if c == 0 {
			firstCorpus = contracts
		}
		static, err := campaign.Run(context.Background(), adaptiveJobs(cfg, c, contracts),
			campaign.Config{Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive static corpus %d: %w", c, err)
		}
		adaptive, err := campaign.Run(context.Background(), adaptiveJobs(cfg, c, contracts),
			campaign.Config{Workers: cfg.Workers, Adaptive: true})
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive on corpus %d: %w", c, err)
		}
		scov, err := coverageSum(static)
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive static corpus %d: %w", c, err)
		}
		acov, err := coverageSum(adaptive)
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive on corpus %d: %w", c, err)
		}
		stp, sfp, err := scoreAdaptive(static, truths)
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive static corpus %d: %w", c, err)
		}
		atp, afp, err := scoreAdaptive(adaptive, truths)
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive on corpus %d: %w", c, err)
		}
		res.Runs = append(res.Runs, AdaptiveCorpusRun{
			Corpus:           c,
			StaticCoverage:   scov,
			AdaptiveCoverage: acov,
			StaticTP:         stp,
			AdaptiveTP:       atp,
			StaticFP:         sfp,
			AdaptiveFP:       afp,
			StaticIters:      static.Iterations,
			AdaptiveIters:    adaptive.Iterations,
			Sched:            adaptive.Sched,
		})
	}

	// Leg 2: worker-count digest identity on the first corpus.
	var refState string
	for i, workers := range workerCounts {
		rep, err := campaign.Run(context.Background(), adaptiveJobs(cfg, 0, firstCorpus),
			campaign.Config{Workers: workers, Adaptive: true})
		if err != nil {
			return nil, fmt.Errorf("bench: adaptive workers=%d: %w", workers, err)
		}
		if i == 0 {
			refState = rep.StateDigest()
		} else if rep.StateDigest() != refState {
			res.DigestMatch = false
		}
	}

	// Leg 3: kill+resume on the first corpus.
	dir, err := os.MkdirTemp("", "wasai-adaptive")
	if err != nil {
		return nil, fmt.Errorf("bench: adaptive journal dir: %w", err)
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "adaptive.jsonl")
	acfg := campaign.Config{Workers: cfg.Workers, Adaptive: true, Journal: journal, JournalSync: 1}
	full, err := campaign.Run(context.Background(), adaptiveJobs(cfg, 0, firstCorpus), acfg)
	if err != nil {
		return nil, fmt.Errorf("bench: adaptive journaled run: %w", err)
	}
	// Truncate the journal to its first half — exactly the durable prefix a
	// SIGKILL after N synced records leaves behind (torn tails are the
	// WAL's own tests' business; here the cut is clean by construction).
	if err := truncateJournal(journal, len(firstCorpus)/2); err != nil {
		return nil, err
	}
	rcfg := acfg
	rcfg.Resume = true
	resumed, err := campaign.Run(context.Background(), adaptiveJobs(cfg, 0, firstCorpus), rcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: adaptive resumed run: %w", err)
	}
	res.ResumeReplayed = resumed.Replayed
	res.ResumeMatch = resumed.StateDigest() == full.StateDigest() && full.StateDigest() == refState
	return res, nil
}

// truncateJournal rewrites a WAL journal keeping only its first keep
// records, preserving the header meta (the base-seed pin).
func truncateJournal(path string, keep int) error {
	log, replay, err := wal.Open(path, wal.Options{})
	if err != nil {
		return fmt.Errorf("bench: adaptive journal truncate: %w", err)
	}
	log.Close()
	if keep > len(replay.Records) {
		keep = len(replay.Records)
	}
	out, err := wal.Create(path, wal.Options{Meta: replay.Meta, SyncEvery: 1})
	if err != nil {
		return fmt.Errorf("bench: adaptive journal truncate: %w", err)
	}
	for _, rec := range replay.Records[:keep] {
		if err := out.Append(rec); err != nil {
			out.Close()
			return fmt.Errorf("bench: adaptive journal truncate: %w", err)
		}
	}
	return out.Close()
}

// RenderAdaptive prints the experiment summary.
func RenderAdaptive(r *AdaptiveResult) string {
	var sb strings.Builder
	sb.WriteString("adaptive — coverage-driven scheduling differential (equal per-contract budget)\n")
	for _, run := range r.Runs {
		marker := ""
		if run.AdaptiveCoverage > run.StaticCoverage {
			marker = "  (+coverage)"
		}
		fmt.Fprintf(&sb, "  corpus %d: coverage %d→%d, true positives %d→%d, false positives %d→%d, iterations %d→%d, %d energy updates, %d composite arms, %d/%d fuel regranted%s\n",
			run.Corpus, run.StaticCoverage, run.AdaptiveCoverage,
			run.StaticTP, run.AdaptiveTP,
			run.StaticFP, run.AdaptiveFP,
			run.StaticIters, run.AdaptiveIters,
			run.Sched.EnergyUpdates, run.Sched.CompositeFired,
			run.Sched.FuelReallocated, run.Sched.FuelReturned, marker)
	}
	fmt.Fprintf(&sb, "  worker-count digest identity: %v\n", r.DigestMatch)
	fmt.Fprintf(&sb, "  kill+resume digest identity: %v (%d jobs replayed)\n", r.ResumeMatch, r.ResumeReplayed)
	if r.Passed() {
		sb.WriteString("adaptive: PASS — never worse, strictly better somewhere, deterministic, resumable\n")
	} else {
		fmt.Fprintf(&sb, "adaptive: FAIL — coverage≥static=%v findings≥static=%v strictly-better=%v budget=%v digests=%v resume=%v\n",
			r.CoverageNeverWorse(), r.FindingsNeverWorse(), r.StrictlyBetter(),
			r.BudgetRespected(), r.DigestMatch, r.ResumeMatch)
	}
	return sb.String()
}
