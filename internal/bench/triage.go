package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/static"
)

// TriageConfig tunes EvaluateTriage.
type TriageConfig struct {
	EvalConfig
	// TrivialContracts appends this many action-less contracts (exported
	// apply, no dispatch table, no effectful host calls) to the corpus.
	// Every generated benchmark contract uses call_indirect dispatch and so
	// is a Fake EOS/Notif candidate; the trivial padding is what gives the
	// triage pass provably-negative jobs to skip, mimicking the large
	// fraction of boilerplate contracts in a wild population.
	TrivialContracts int
}

// DefaultTriageConfig mirrors DefaultEvalConfig with enough trivial padding
// to measure the skip path.
func DefaultTriageConfig() TriageConfig {
	return TriageConfig{EvalConfig: DefaultEvalConfig(), TrivialContracts: 8}
}

// TriageResult reports the static-vs-dynamic agreement experiment: the same
// corpus fuzzed with triage off and on.
type TriageResult struct {
	// Samples is the corpus size (dataset samples + trivial padding);
	// Skipped how many jobs triage answered statically.
	Samples, Skipped int
	// DigestMatch is the acceptance gate: the findings digests of the two
	// runs are byte-identical (triage never changes findings).
	DigestMatch bool
	// BaselineWall and TriageWall are the two campaigns' wall-clock times.
	BaselineWall, TriageWall time.Duration
	// PerClass scores the static candidate flag against the dynamic oracle
	// per class: truth = the fuzzer flagged the class, flagged = the static
	// candidate was set. Recall must be 1.0 — a dynamic finding without its
	// candidate flag would mean an unsound skip condition.
	PerClass map[contractgen.Class]Counts
	// Total merges PerClass.
	Total Counts
}

// Speedup returns baseline wall / triage wall (>1 means triage saved time).
func (r *TriageResult) Speedup() float64 {
	if r.TriageWall <= 0 {
		return 0
	}
	return float64(r.BaselineWall) / float64(r.TriageWall)
}

// String renders the report in the style of the accuracy tables.
func (r *TriageResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static triage: %d contracts, %d skipped, digest match=%v\n",
		r.Samples, r.Skipped, r.DigestMatch)
	fmt.Fprintf(&sb, "  wall: baseline %.2fs, triage %.2fs (%.2fx)\n",
		r.BaselineWall.Seconds(), r.TriageWall.Seconds(), r.Speedup())
	fmt.Fprintf(&sb, "  %-14s %9s %9s\n", "candidates", "precision", "recall")
	for _, class := range contractgen.Classes {
		c := r.PerClass[class]
		fmt.Fprintf(&sb, "  %-14s %8.1f%% %8.1f%%\n", class, 100*c.Precision(), 100*c.Recall())
	}
	fmt.Fprintf(&sb, "  %-14s %8.1f%% %8.1f%%\n", "overall", 100*r.Total.Precision(), 100*r.Total.Recall())
	return sb.String()
}

// EvaluateTriage fuzzes the corpus twice — triage off, then on — and scores
// the static candidate flags against the dynamic verdicts of the baseline
// run. It is the evaluation the static layer is held to: the pass is
// measured (precision/recall/wall-clock), not just trusted.
func EvaluateTriage(ctx context.Context, ds *Dataset, cfg TriageConfig) (*TriageResult, error) {
	var jobs []campaign.Job
	fcfg := fuzz.Config{Iterations: cfg.FuzzIterations, SolverConflicts: cfg.SolverConflicts}
	for _, s := range ds.Samples {
		jobs = append(jobs, campaign.Job{
			Name:   fmt.Sprintf("%s-%d", s.Class, s.ID),
			Module: s.Contract.Module,
			ABI:    s.Contract.ABI,
			Config: fcfg,
		})
	}
	for i := 0; i < cfg.TrivialContracts; i++ {
		c := contractgen.Trivial()
		jobs = append(jobs, campaign.Job{
			Name:   fmt.Sprintf("trivial-%d", i),
			Module: c.Module,
			ABI:    c.ABI,
			Config: fcfg,
		})
	}

	// Memo (inherited from EvalConfig) applies to both legs: the digest
	// gate below then also witnesses cache-on findings invariance.
	ccfg := campaign.Config{Workers: cfg.Workers, BaseSeed: cfg.Seed, Memo: cfg.Memo, Verdicts: cfg.Verdicts}
	baseline, err := campaign.Run(ctx, jobs, ccfg)
	if err != nil {
		return nil, fmt.Errorf("bench: triage baseline: %w", err)
	}
	ccfg.StaticTriage = true
	triaged, err := campaign.Run(ctx, jobs, ccfg)
	if err != nil {
		return nil, fmt.Errorf("bench: triage run: %w", err)
	}

	res := &TriageResult{
		Samples:      len(jobs),
		Skipped:      triaged.Skipped,
		DigestMatch:  baseline.FindingsDigest() == triaged.FindingsDigest(),
		BaselineWall: baseline.Wall,
		TriageWall:   triaged.Wall,
		PerClass:     map[contractgen.Class]Counts{},
	}
	// Score the candidate flags against the baseline's dynamic verdicts.
	for _, jr := range baseline.Results {
		if jr.Err != nil {
			continue
		}
		rep, err := static.Analyze(jr.Job.Module)
		if err != nil {
			continue
		}
		for _, class := range contractgen.Classes {
			c := res.PerClass[class]
			c.Add(jr.Result.Report.Vulnerable[class], rep.Candidates[class])
			res.PerClass[class] = c
		}
	}
	res.Total = Total(res.PerClass)
	return res, nil
}
