package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/baseline/eosfuzzer"
	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
)

// CoverageConfig tunes the RQ1 experiment: NumContracts "real-world-like"
// samples fuzzed for Iterations transactions each, coverage accumulated
// across the corpus exactly as Figure 3 plots it.
type CoverageConfig struct {
	NumContracts int
	Iterations   int
	Seed         int64
	// SamplePoints is how many x-axis points the series keeps.
	SamplePoints int
	// Engine runs the WASAI campaigns. The EOSFuzzer baseline runs on its
	// Workers and stays static whatever Adaptive says.
	Engine campaign.Config
}

// DefaultCoverageConfig mirrors the RQ1 setup at simulator scale.
func DefaultCoverageConfig() CoverageConfig {
	return CoverageConfig{NumContracts: 100, Iterations: 240, Seed: 1, SamplePoints: 24}
}

// CoverageSeries is one tool's cumulative distinct-branch curve.
type CoverageSeries struct {
	Tool   Tool
	Points []fuzz.CoveragePoint
}

// EvaluateCoverage reproduces Figure 3: the same contract corpus fuzzed by
// WASAI and by EOSFuzzer, cumulative distinct branches over the iteration
// budget.
func EvaluateCoverage(cfg CoverageConfig) ([]CoverageSeries, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// A "real-world" mix: lottery/responder contracts across all classes
	// with the population's dispatcher and branch diversity.
	contracts := make([]*contractgen.Contract, 0, cfg.NumContracts)
	for i := 0; i < cfg.NumContracts; i++ {
		class := contractgen.Classes[rng.Intn(len(contractgen.Classes))]
		spec := contractgen.RandomSpec(class, rng.Intn(2) == 0, rng)
		c, err := contractgen.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("bench: coverage corpus %d: %w", i, err)
		}
		contracts = append(contracts, c)
	}

	// Both tools run on the campaign engine: WASAI campaigns as engine jobs,
	// the baseline through campaign.Each. Per-contract series are summed
	// serially afterwards, so the curves are worker-count invariant.
	jobs := make([]campaign.Job, len(contracts))
	for i, c := range contracts {
		jobs[i] = campaign.Job{
			Name:   fmt.Sprintf("coverage-%d", i),
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{
				Iterations:      cfg.Iterations,
				SolverConflicts: 50_000,
				Seed:            cfg.Seed + int64(i),
			},
		}
	}
	rep, err := campaign.Run(context.Background(), jobs, cfg.Engine)
	if err != nil {
		return nil, err
	}
	eresults := make([]*eosfuzzer.Result, len(contracts))
	err = campaign.Each(context.Background(), len(contracts), cfg.Engine, func(_ context.Context, i int) error {
		eres, err := eosfuzzer.Run(contracts[i].Module, contracts[i].ABI, eosfuzzer.Config{
			Iterations: cfg.Iterations,
			Seed:       cfg.Seed + int64(i),
		})
		if err != nil {
			return err
		}
		eresults[i] = eres
		return nil
	})
	if err != nil {
		return nil, err
	}

	wasai := make([]int, cfg.Iterations)
	eosf := make([]int, cfg.Iterations)
	for i := range contracts {
		jr := rep.Results[i]
		if jr.Err != nil {
			return nil, jr.Err
		}
		// WASAI records change-points only; expand to the dense series the
		// Figure 3 accumulation sums. The baseline still records densely.
		for it, branches := range fuzz.ExpandCoverage(jr.Result.CoverageOverTime, cfg.Iterations) {
			wasai[it] += branches
		}
		for _, p := range eresults[i].CoverageOverTime {
			eosf[p.Iteration-1] += p.Branches
		}
	}

	sample := func(tool Tool, series []int) CoverageSeries {
		out := CoverageSeries{Tool: tool}
		step := len(series) / cfg.SamplePoints
		if step == 0 {
			step = 1
		}
		for i := step - 1; i < len(series); i += step {
			out.Points = append(out.Points, fuzz.CoveragePoint{Iteration: i + 1, Branches: series[i]})
		}
		return out
	}
	return []CoverageSeries{sample(ToolWASAI, wasai), sample(ToolEOSFuzzer, eosf)}, nil
}

// RenderCoverage prints the Figure 3 series with an ASCII sparkline per
// tool and the headline ratio.
func RenderCoverage(series []CoverageSeries) string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — cumulative distinct branches vs fuzzing budget\n")
	var max int
	for _, s := range series {
		if n := len(s.Points); n > 0 && s.Points[n-1].Branches > max {
			max = s.Points[n-1].Branches
		}
	}
	for _, s := range series {
		fmt.Fprintf(&sb, "%-10s", s.Tool)
		for _, p := range s.Points {
			fmt.Fprintf(&sb, " %5d", p.Branches)
		}
		sb.WriteString("\n")
	}
	if len(series) == 2 && len(series[1].Points) > 0 {
		a := series[0].Points[len(series[0].Points)-1].Branches
		b := series[1].Points[len(series[1].Points)-1].Branches
		if b > 0 {
			fmt.Fprintf(&sb, "final ratio WASAI/EOSFuzzer = %.2fx\n", float64(a)/float64(b))
		}
	}
	return sb.String()
}
