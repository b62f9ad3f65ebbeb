package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/fuzz"
	"repro/internal/static"
	"repro/internal/static/absint"
)

// verdict.go is the abstract-interpretation verdict-engine experiment, run
// as three legs that hold the engine's contracted properties to a gate at
// once. `wasai-bench -exp verdict` exits non-zero when any fails.
//
// Leg 1 (soundness) analyzes a generated ground-truth corpus, a wild
// population sample and VerdictTrivialContracts boilerplate contracts, and
// cross-checks every per-class verdict against a real dynamic campaign
// over the same contracts, in both directions: a proven-negative class
// whose dynamic oracle fires, or a proven-positive class whose oracle
// stays silent, is a soundness violation. The same leg holds the
// candidate flags of internal/static to the two properties that let the
// verdicts stand in for them: every dynamic finding's class carries its
// candidate flag, and every class without one is proven negative by
// absint. The gate requires zero violations of each kind.
//
// Leg 2 (precision) measures how much of the wild population the engine
// decides statically, counted per (contract, class) verdict. The gate
// requires ≥30% of the wild verdict matrix decided. The leg also counts,
// per corpus part, the contracts with every class proven negative; only
// intrinsic-free boilerplate qualifies, because the on-chain-data scenario
// classes stay Unknown on any db-writing contract.
//
// Leg 3 (campaign determinism) fuzzes the combined corpus at several
// worker counts and requires every run's FindingsDigest byte-identical to
// the first run's, which is leg 1's dynamic oracle.

// VerdictTrivialContracts is how many contractgen.Trivial contracts the
// corpus carries. Every class of a trivial contract is proven negative.
const VerdictTrivialContracts = 4

// VerdictConfig tunes the verdict-engine experiment.
type VerdictConfig struct {
	// WildContracts is the wild-population sample size (leg 2's
	// denominator); the ground-truth corpus adds one vulnerable and one
	// safe contract per class on top.
	WildContracts  int
	FuzzIterations int
	Seed           int64
	// WorkerCounts are the pool sizes the campaign runs at.
	WorkerCounts []int
}

// DefaultVerdictConfig is the acceptance-gate shape: every class in both
// ground-truth polarities, a wild sample big enough for the resolution
// ratio to be meaningful, and the 1/4/8 worker counts the determinism
// suite uses.
func DefaultVerdictConfig() VerdictConfig {
	return VerdictConfig{
		WildContracts:  20,
		FuzzIterations: 160,
		Seed:           5,
		WorkerCounts:   []int{1, 4, 8},
	}
}

// VerdictClassStats aggregates one class's verdicts over the corpus.
type VerdictClassStats struct {
	// ProvenNeg, ProvenPos and Unknown count the three verdict kinds.
	ProvenNeg, ProvenPos, Unknown int
	// NegViolations counts proven-negative verdicts whose dynamic oracle
	// fired; PosViolations proven-positive verdicts whose oracle stayed
	// silent. Both must be zero.
	NegViolations, PosViolations int
	// CandidateViolations counts dynamic findings on contracts without
	// the class's static candidate flag; StaticGaps counts contracts
	// without the flag whose verdict is not proven negative. Both must be
	// zero.
	CandidateViolations, StaticGaps int
}

// VerdictWorkerRun is the campaign leg's run at one worker count.
type VerdictWorkerRun struct {
	Workers int
	// DigestMatch reports whether the run's FindingsDigest equals the
	// experiment-wide reference.
	DigestMatch bool
	// Wall times the run (reporting-only).
	Wall time.Duration
}

// VerdictPart counts one part of the corpus: its contracts, and those with
// every class proven negative, the only contracts a pre-execution skip
// could answer.
type VerdictPart struct {
	Name                   string
	Contracts, AllNegative int
}

// VerdictResult aggregates the experiment.
type VerdictResult struct {
	// Total is the corpus size; Wild the wild-population subset.
	// WildResolved counts wild contracts fully resolved (all classes
	// proven negative, or any proven positive); WildDecided counts the
	// non-Unknown entries of the wild (contract, class) verdict matrix.
	Total, Wild, WildResolved, WildDecided int
	// PerClass holds the verdict and violation counts per oracle class.
	PerClass map[contractgen.Class]*VerdictClassStats
	// Parts holds the ground-truth, wild and trivial parts, in corpus
	// order.
	Parts []VerdictPart
	// Runs holds the per-worker-count campaign runs; DigestMatch is true
	// when every run matched the reference findings digest.
	Runs        []VerdictWorkerRun
	DigestMatch bool
}

// sum totals one per-class count over all classes.
func (r *VerdictResult) sum(count func(*VerdictClassStats) int) int {
	n := 0
	for _, s := range r.PerClass {
		n += count(s)
	}
	return n
}

// NegViolations sums the unsound-negative count over all classes.
func (r *VerdictResult) NegViolations() int {
	return r.sum(func(s *VerdictClassStats) int { return s.NegViolations })
}

// PosViolations sums the unsound-positive count over all classes.
func (r *VerdictResult) PosViolations() int {
	return r.sum(func(s *VerdictClassStats) int { return s.PosViolations })
}

// CandidateViolations sums the dynamic findings that lacked their static
// candidate flag over all classes.
func (r *VerdictResult) CandidateViolations() int {
	return r.sum(func(s *VerdictClassStats) int { return s.CandidateViolations })
}

// StaticGaps sums the static negatives absint did not prove over all
// classes.
func (r *VerdictResult) StaticGaps() int {
	return r.sum(func(s *VerdictClassStats) int { return s.StaticGaps })
}

// Resolution is the decided fraction of the wild (contract, class) verdict
// matrix.
func (r *VerdictResult) Resolution() float64 {
	if r.Wild == 0 {
		return 0
	}
	return float64(r.WildDecided) / float64(r.Wild*len(contractgen.Classes))
}

// Passed is the acceptance gate: zero soundness violations in both
// directions, zero static-candidate violations and static gaps, ≥30% wild
// resolution, and byte-identical findings digests at every worker count.
func (r *VerdictResult) Passed() bool {
	return r.DigestMatch && r.NegViolations() == 0 && r.PosViolations() == 0 &&
		r.CandidateViolations() == 0 && r.StaticGaps() == 0 &&
		r.Resolution() >= 0.30
}

// Failure summarizes the gate's counters for a failed run.
func (r *VerdictResult) Failure() string {
	return fmt.Sprintf("violations neg=%d pos=%d candidate=%d static-gaps=%d, resolution %.0f%% (need ≥30%%), digests identical=%v",
		r.NegViolations(), r.PosViolations(), r.CandidateViolations(), r.StaticGaps(),
		100*r.Resolution(), r.DigestMatch)
}

// EvaluateVerdict runs all three legs over one combined corpus.
func EvaluateVerdict(cfg VerdictConfig) (*VerdictResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Corpus: the full ground-truth sweep (every class, both polarities),
	// the wild sample, then the trivial contracts.
	const truthPart, wildPart, trivialPart = 0, 1, 2 // indices into Parts
	type sample struct {
		name     string
		contract *contractgen.Contract
		part     int
	}
	var samples []sample
	for _, class := range contractgen.Classes {
		for _, vul := range []bool{true, false} {
			c, err := contractgen.Generate(contractgen.Spec{Class: class, Vulnerable: vul, Seed: cfg.Seed})
			if err != nil {
				return nil, fmt.Errorf("bench: verdict ground truth %v/%v: %w", class, vul, err)
			}
			samples = append(samples, sample{name: fmt.Sprintf("gt-%s-%v", class, vul), contract: c, part: truthPart})
		}
	}
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(cfg.WildContracts), rng)
	if err != nil {
		return nil, fmt.Errorf("bench: verdict wild corpus: %w", err)
	}
	for _, w := range wild {
		samples = append(samples, sample{name: "wild-" + w.Name.String(), contract: w.Contract, part: wildPart})
	}
	for i := 0; i < VerdictTrivialContracts; i++ {
		samples = append(samples, sample{name: fmt.Sprintf("trivial-%d", i), contract: contractgen.Trivial(), part: trivialPart})
	}

	res := &VerdictResult{
		Total:       len(samples),
		PerClass:    map[contractgen.Class]*VerdictClassStats{},
		Parts:       []VerdictPart{{Name: "ground truth"}, {Name: "wild"}, {Name: "trivial"}},
		DigestMatch: true,
	}
	for _, class := range contractgen.Classes {
		res.PerClass[class] = &VerdictClassStats{}
	}

	// Static pass: one verdict report and one candidate report per
	// contract, which legs 1 and 2 read.
	reports := make([]*absint.Report, len(samples))
	candidates := make([]*static.Report, len(samples))
	for i, s := range samples {
		var actions []eos.Name
		for _, act := range s.contract.ABI.Actions {
			actions = append(actions, act.Name)
		}
		reports[i] = absint.Analyze(s.contract.Module, actions)
		if candidates[i], err = static.Analyze(s.contract.Module); err != nil {
			return nil, fmt.Errorf("bench: verdict static pass %q: %w", s.name, err)
		}
		for _, class := range contractgen.Classes {
			kind := reports[i].Verdicts[class].Kind
			switch kind {
			case absint.ProvenNegative:
				res.PerClass[class].ProvenNeg++
			case absint.ProvenPositive:
				res.PerClass[class].ProvenPos++
			default:
				res.PerClass[class].Unknown++
			}
			if !candidates[i].Candidates[class] && kind != absint.ProvenNegative {
				res.PerClass[class].StaticGaps++
			}
		}
		part := &res.Parts[s.part]
		part.Contracts++
		if reports[i].AllNegative() {
			part.AllNegative++
		}
		if s.part == wildPart {
			res.Wild++
			if reports[i].AllNegative() || reports[i].AnyPositive() {
				res.WildResolved++
			}
			for _, class := range contractgen.Classes {
				if reports[i].Verdicts[class].Kind != absint.Unknown {
					res.WildDecided++
				}
			}
		}
	}

	makeJobs := func() []campaign.Job {
		jobs := make([]campaign.Job, len(samples))
		for i, s := range samples {
			jobs[i] = campaign.Job{
				Name:   s.name,
				Module: s.contract.Module,
				ABI:    s.contract.ABI,
				Config: fuzz.Config{
					Iterations:      cfg.FuzzIterations,
					SolverConflicts: 50_000,
					Seed:            cfg.Seed + int64(i),
				},
			}
		}
		return jobs
	}
	workerCounts := cfg.WorkerCounts
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}

	var refFindings string
	for i, workers := range workerCounts {
		rep, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("bench: verdict campaign (workers=%d): %w", workers, err)
		}
		if i == 0 {
			refFindings = rep.FindingsDigest()
			// Soundness leg: the first dynamic run is the oracle reference.
			for j, jr := range rep.Results {
				if jr.Err != nil {
					return nil, fmt.Errorf("bench: verdict job %q: %w", jr.Job.Name, jr.Err)
				}
				for _, class := range contractgen.Classes {
					dyn := jr.Result.Report.Vulnerable[class]
					if dyn && !candidates[j].Candidates[class] {
						res.PerClass[class].CandidateViolations++
					}
					switch reports[j].Verdicts[class].Kind {
					case absint.ProvenNegative:
						if dyn {
							res.PerClass[class].NegViolations++
						}
					case absint.ProvenPositive:
						if !dyn {
							res.PerClass[class].PosViolations++
						}
					}
				}
			}
		}
		match := rep.FindingsDigest() == refFindings
		if !match {
			res.DigestMatch = false
		}
		res.Runs = append(res.Runs, VerdictWorkerRun{Workers: workers, DigestMatch: match, Wall: rep.Wall})
	}
	return res, nil
}

// RenderVerdict prints the experiment summary.
func RenderVerdict(r *VerdictResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verdict — abstract-interpretation verdict engine\n")
	fmt.Fprintf(&sb, "soundness leg (%d contracts, %d wild):\n", r.Total, r.Wild)
	for _, class := range contractgen.Classes {
		s := r.PerClass[class]
		fmt.Fprintf(&sb, "  %-14s neg=%-3d pos=%-3d unknown=%-3d violations neg=%d pos=%d candidate=%d static-gaps=%d\n",
			class, s.ProvenNeg, s.ProvenPos, s.Unknown, s.NegViolations, s.PosViolations,
			s.CandidateViolations, s.StaticGaps)
	}
	parts := make([]string, len(r.Parts))
	for i, p := range r.Parts {
		parts[i] = fmt.Sprintf("%s %d/%d", p.Name, p.AllNegative, p.Contracts)
	}
	fmt.Fprintf(&sb, "precision leg: %d/%d wild (contract, class) verdicts decided (%.0f%%, need ≥30%%); %d/%d contracts fully resolved; all classes proven negative: %s\n",
		r.WildDecided, r.Wild*len(contractgen.Classes), 100*r.Resolution(), r.WildResolved, r.Wild, strings.Join(parts, ", "))
	fmt.Fprintf(&sb, "campaign leg:\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "  workers=%d: findings digest identical=%v, wall %.2fs\n",
			run.Workers, run.DigestMatch, run.Wall.Seconds())
	}
	if r.Passed() {
		fmt.Fprintf(&sb, "verdict: PASS — zero soundness violations, every static negative proven, %.0f%% wild resolution, byte-identical findings\n",
			100*r.Resolution())
	} else {
		fmt.Fprintf(&sb, "verdict: FAIL — %s\n", r.Failure())
	}
	return sb.String()
}
