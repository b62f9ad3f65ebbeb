package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline/eosafe"
	"repro/internal/baseline/eosfuzzer"
	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
)

// Counts are the confusion-matrix tallies for one detector on one class.
type Counts struct {
	TP, FP, TN, FN int
}

// Add merges a single verdict.
func (c *Counts) Add(truth, flagged bool) {
	switch {
	case truth && flagged:
		c.TP++
	case truth && !flagged:
		c.FN++
	case !truth && flagged:
		c.FP++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Counts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Counts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Total merges all counts.
func Total(per map[contractgen.Class]Counts) Counts {
	var t Counts
	for _, c := range per {
		t.TP += c.TP
		t.FP += c.FP
		t.TN += c.TN
		t.FN += c.FN
	}
	return t
}

// Tool names a detector under evaluation.
type Tool string

// The three tools of Tables 4-6.
const (
	ToolWASAI     Tool = "WASAI"
	ToolEOSFuzzer Tool = "EOSFuzzer"
	ToolEOSAFE    Tool = "EOSAFE"
)

// toolSupports mirrors the '-' cells of the paper's tables.
func toolSupports(tool Tool, class contractgen.Class) bool {
	switch tool {
	case ToolEOSFuzzer:
		return class == contractgen.ClassFakeEOS ||
			class == contractgen.ClassFakeNotif ||
			class == contractgen.ClassBlockinfoDep
	case ToolEOSAFE:
		return class != contractgen.ClassBlockinfoDep
	default:
		return true
	}
}

// AccuracyResult is one detector's per-class confusion counts.
type AccuracyResult struct {
	Tool     Tool
	PerClass map[contractgen.Class]Counts
}

// EvalConfig tunes the accuracy evaluation run.
type EvalConfig struct {
	FuzzIterations  int
	SolverConflicts int64
	Seed            int64
	// Engine runs the WASAI campaigns; its Workers also bound the
	// baselines' sample-level parallelism.
	Engine campaign.Config
}

// DefaultEvalConfig mirrors the paper's per-contract budget in deterministic
// units.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{FuzzIterations: 240, SolverConflicts: 50_000, Seed: 1}
}

// EvaluateAccuracy runs every tool over the dataset and scores the verdicts
// against ground truth — each sample is scored only for its own class, as
// the paper's per-type tables do. Samples run in parallel on the campaign
// engine (each campaign owns its chain, so they are independent); WASAI
// campaigns shard as engine jobs, the baselines through campaign.Each.
func EvaluateAccuracy(ds *Dataset, tools []Tool, cfg EvalConfig) ([]AccuracyResult, error) {
	results := make([]AccuracyResult, 0, len(tools))
	for _, tool := range tools {
		verdicts := make([]bool, len(ds.Samples))
		var err error
		if tool == ToolWASAI {
			err = wasaiVerdicts(ds, cfg, verdicts)
		} else {
			err = campaign.Each(context.Background(), len(ds.Samples), cfg.Engine, func(_ context.Context, i int) error {
				s := ds.Samples[i]
				if !toolSupports(tool, s.Class) {
					return nil
				}
				flagged, err := runBaseline(tool, s, cfg)
				if err != nil {
					return fmt.Errorf("bench: %s on sample %d: %w", tool, s.ID, err)
				}
				verdicts[i] = flagged
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
		per := map[contractgen.Class]Counts{}
		for i, s := range ds.Samples {
			if !toolSupports(tool, s.Class) {
				continue
			}
			c := per[s.Class]
			c.Add(s.Truth, verdicts[i])
			per[s.Class] = c
		}
		results = append(results, AccuracyResult{Tool: tool, PerClass: per})
	}
	return results, nil
}

// wasaiVerdicts shards the WASAI campaigns across the engine: one job per
// supported sample, seeded by sample ID so the verdicts are independent of
// worker count and scheduling.
func wasaiVerdicts(ds *Dataset, cfg EvalConfig, verdicts []bool) error {
	var (
		jobs    []campaign.Job
		samples []int // job index -> sample index
	)
	for i, s := range ds.Samples {
		if !toolSupports(ToolWASAI, s.Class) {
			continue
		}
		jobs = append(jobs, campaign.Job{
			Name:   fmt.Sprintf("sample-%d", s.ID),
			Module: s.Contract.Module,
			ABI:    s.Contract.ABI,
			Config: fuzz.Config{
				Iterations:      cfg.FuzzIterations,
				SolverConflicts: cfg.SolverConflicts,
				Seed:            cfg.Seed + int64(s.ID),
			},
		})
		samples = append(samples, i)
	}
	rep, err := campaign.Run(context.Background(), jobs, cfg.Engine)
	if err != nil {
		return err
	}
	for j, jr := range rep.Results {
		s := ds.Samples[samples[j]]
		if jr.Err != nil {
			return fmt.Errorf("bench: %s on sample %d: %w", ToolWASAI, s.ID, jr.Err)
		}
		verdicts[samples[j]] = jr.Result.Report.Vulnerable[s.Class]
	}
	return nil
}

func runBaseline(tool Tool, s Sample, cfg EvalConfig) (bool, error) {
	switch tool {
	case ToolEOSFuzzer:
		res, err := eosfuzzer.Run(s.Contract.Module, s.Contract.ABI, eosfuzzer.Config{
			Iterations: cfg.FuzzIterations,
			Seed:       cfg.Seed + int64(s.ID),
		})
		if err != nil {
			return false, err
		}
		return res.Report[s.Class], nil
	case ToolEOSAFE:
		return eosafe.Analyze(s.Contract.Module).Report[s.Class], nil
	default:
		return false, fmt.Errorf("unknown tool %q", tool)
	}
}

// RenderAccuracyTable prints the Table 4/5/6 layout.
func RenderAccuracyTable(title string, ds *Dataset, results []AccuracyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (dataset %q, %d samples)\n", title, ds.Name, len(ds.Samples))
	fmt.Fprintf(&sb, "%-14s %-16s", "Types", "#Cnt(Vul/Non)")
	for _, r := range results {
		fmt.Fprintf(&sb, " | %-9s P      R      F1   ", r.Tool)
	}
	sb.WriteString("\n")

	classCount := map[contractgen.Class][2]int{}
	for _, s := range ds.Samples {
		c := classCount[s.Class]
		if s.Truth {
			c[0]++
		} else {
			c[1]++
		}
		classCount[s.Class] = c
	}
	classes := append([]contractgen.Class(nil), contractgen.Classes...)
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	row := func(label string, count string, get func(AccuracyResult) (Counts, bool)) {
		fmt.Fprintf(&sb, "%-14s %-16s", label, count)
		for _, r := range results {
			c, ok := get(r)
			if !ok {
				fmt.Fprintf(&sb, " | %-9s %-6s %-6s %-6s", "", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&sb, " | %-9s %5.1f%% %5.1f%% %5.1f%%", "",
				100*c.Precision(), 100*c.Recall(), 100*c.F1())
		}
		sb.WriteString("\n")
	}
	for _, class := range classes {
		cc := classCount[class]
		cls := class
		row(class.String(), fmt.Sprintf("%d(%d/%d)", cc[0]+cc[1], cc[0], cc[1]), func(r AccuracyResult) (Counts, bool) {
			c, ok := r.PerClass[cls]
			return c, ok
		})
	}
	row("Total", fmt.Sprintf("%d", len(ds.Samples)), func(r AccuracyResult) (Counts, bool) {
		return Total(r.PerClass), true
	})
	return sb.String()
}
