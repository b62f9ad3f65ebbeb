package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/abi"
	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/wasm"
)

// WildConfig tunes the RQ4 reproduction.
type WildConfig struct {
	NumContracts   int
	FuzzIterations int
	Seed           int64
	// Engine runs both passes; the patched-version pass journals to a
	// file of its own.
	Engine campaign.Config
}

// DefaultWildConfig mirrors §4.4: 991 profitable contracts.
func DefaultWildConfig() WildConfig {
	return WildConfig{NumContracts: 991, FuzzIterations: 240, Seed: 1}
}

// WildResult aggregates the RQ4 study outcome.
type WildResult struct {
	Total          int
	Flagged        int
	PerClass       map[contractgen.Class]int
	StillOperating int
	Abandoned      int
	Patched        int
	Exposed        int
	// VerifiedPatched counts patched versions WASAI re-analyzed and found
	// clean (the paper's footnote 1: "we further applied WASAI to analyze
	// their latest version to investigate whether the vulnerability has
	// been patched").
	VerifiedPatched int
	// Accuracy vs the generator's ground truth (the paper verified 100
	// samples manually; we can score everything).
	PerClassAccuracy map[contractgen.Class]Counts
	// Wall-clock throughput of the scan, from the campaign engine.
	JobsPerSecond float64
	// TerminalFailures counts contracts that failed even after retries;
	// PerFailure breaks them down by failure class. A failed contract is
	// excluded from the accuracy and lifecycle tallies (it has no verdict),
	// not silently scored clean.
	TerminalFailures int
	PerFailure       map[failure.Class]int
	// Degraded, Retried and Replayed surface the engine's resilience
	// counters (results from degraded attempts are real verdicts, but a
	// reader comparing against the paper should know how many ran with
	// reduced budgets).
	Degraded, Retried, Replayed int
}

// EvaluateWild generates the wild population, fuzzes every contract on the
// campaign engine, and reproduces the §4.4 analysis including the
// patch/abandon lifecycle. The patched-version re-analyses run as a second
// engine batch.
func EvaluateWild(cfg WildConfig) (*WildResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(cfg.NumContracts), rng)
	if err != nil {
		return nil, err
	}
	res := &WildResult{
		Total:            len(pop),
		PerClass:         map[contractgen.Class]int{},
		PerClassAccuracy: map[contractgen.Class]Counts{},
		PerFailure:       map[failure.Class]int{},
	}
	fuzzCfg := func(i int) fuzz.Config {
		return fuzz.Config{
			Iterations:      cfg.FuzzIterations,
			SolverConflicts: 50_000,
			Seed:            cfg.Seed + int64(i),
		}
	}

	// Sweep the population: one engine job per contract, and one module
	// per distinct bytecode and one ABI per distinct ABI in both passes.
	modules := contractTable{}
	jobs := make([]campaign.Job, len(pop))
	for i := range pop {
		mod, contractABI, err := modules.contract(pop[i].Contract)
		if err != nil {
			return nil, err
		}
		jobs[i] = campaign.Job{
			Name:   pop[i].Name.String(),
			Module: mod,
			ABI:    contractABI,
			Config: fuzzCfg(i),
		}
	}
	rep, err := campaign.Run(context.Background(), jobs, cfg.Engine)
	if err != nil {
		return nil, err
	}
	res.JobsPerSecond = rep.JobsPerSecond
	res.Degraded = rep.Degraded
	res.Retried = rep.Retried
	res.Replayed = rep.Replayed

	// Lifecycle analysis; collect the patched versions of flagged contracts
	// for the re-analysis batch.
	var (
		patchedJobs []campaign.Job
	)
	for i := range pop {
		wc := &pop[i]
		jr := rep.Results[i]
		if jr.Err != nil {
			// A terminal failure is a counted outcome, not a bench abort:
			// the sweep's job is to report on the whole population, and one
			// sick contract must not cost the other N-1 results.
			res.TerminalFailures++
			res.PerFailure[failureClassOf(jr)]++
			continue
		}
		run := jr.Result
		flagged := false
		for cl, truth := range wc.Truth {
			verdict := run.Report.Vulnerable[cl]
			if verdict {
				res.PerClass[cl]++
				flagged = true
			}
			c := res.PerClassAccuracy[cl]
			c.Add(truth, verdict)
			res.PerClassAccuracy[cl] = c
		}
		if !flagged {
			continue
		}
		res.Flagged++
		switch {
		case wc.Abandoned:
			res.Abandoned++
		case wc.Patched:
			res.StillOperating++
			res.Patched++
			// Queue the latest (patched) version for re-analysis.
			if wc.PatchedContract != nil {
				mod, contractABI, err := modules.contract(wc.PatchedContract)
				if err != nil {
					return nil, err
				}
				patchedJobs = append(patchedJobs, campaign.Job{
					Name:   wc.Name.String() + "(patched)",
					Module: mod,
					ABI:    contractABI,
					Config: fuzzCfg(i),
				})
			}
		default:
			res.StillOperating++
			res.Exposed++
		}
	}

	// Re-analyze the patched versions (paper footnote 1) as a second batch.
	if len(patchedJobs) > 0 {
		// The second batch checkpoints to its own file: sharing the path
		// would truncate the main sweep's journal.
		patchedCfg := cfg.Engine
		if patchedCfg.Journal != "" {
			patchedCfg.Journal += ".patched"
		}
		prep, err := campaign.Run(context.Background(), patchedJobs, patchedCfg)
		if err != nil {
			return nil, err
		}
		for _, jr := range prep.Results {
			if jr.Err != nil {
				res.TerminalFailures++
				res.PerFailure[failureClassOf(jr)]++
				continue
			}
			clean := true
			for _, cl := range contractgen.Classes {
				if jr.Result.Report.Vulnerable[cl] {
					clean = false
				}
			}
			if clean {
				res.VerifiedPatched++
			}
		}
	}
	return res, nil
}

// contractTable maps an encoded bytecode to the first module seen with
// it, and an encoded ABI to the first ABI. The generator builds a fresh
// module and ABI for every contract, but the wild population repeats
// both; handing the jobs one of each per encoding lets each campaign
// worker build one artifact, one campaign chain and one scenario pass
// for all of them, as AnalyzeBatch does for the content-identical bytes
// it decodes.
type contractTable struct {
	modules map[string]*wasm.Module
	abis    map[string]*abi.ABI
}

func (t *contractTable) contract(c *contractgen.Contract) (*wasm.Module, *abi.ABI, error) {
	bin, err := wasm.Encode(c.Module)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: encode wild contract: %w", err)
	}
	abiJSON, err := json.Marshal(c.ABI)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: encode wild abi: %w", err)
	}
	if t.modules == nil {
		t.modules, t.abis = map[string]*wasm.Module{}, map[string]*abi.ABI{}
	}
	mod, ok := t.modules[string(bin)]
	if !ok {
		mod = c.Module
		t.modules[string(bin)] = mod
	}
	contractABI, ok := t.abis[string(abiJSON)]
	if !ok {
		contractABI = c.ABI
		t.abis[string(abiJSON)] = contractABI
	}
	return mod, contractABI, nil
}

// failureClassOf resolves a failed job's class, falling back to chain
// inspection for results that predate classification (replayed journals).
func failureClassOf(jr campaign.JobResult) failure.Class {
	if jr.FailureClass != failure.None {
		return jr.FailureClass
	}
	return failure.ClassOf(jr.Err)
}

// RenderWild prints the §4.4 summary.
func RenderWild(r *WildResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RQ4 — vulnerabilities in the wild (%d profitable contracts)\n", r.Total)
	fmt.Fprintf(&sb, "flagged vulnerable: %d (%.1f%%)\n", r.Flagged, 100*float64(r.Flagged)/float64(r.Total))
	for _, cl := range contractgen.Classes {
		fmt.Fprintf(&sb, "  %-14s %4d flagged (P=%.1f%% R=%.1f%% vs ground truth)\n",
			cl, r.PerClass[cl],
			100*r.PerClassAccuracy[cl].Precision(), 100*r.PerClassAccuracy[cl].Recall())
	}
	if r.Flagged > 0 {
		fmt.Fprintf(&sb, "lifecycle of flagged contracts: %d still operating (%.1f%%), %d abandoned, %d patched (%d verified clean on re-analysis), %d exposed\n",
			r.StillOperating, 100*float64(r.StillOperating)/float64(r.Flagged),
			r.Abandoned, r.Patched, r.VerifiedPatched, r.Exposed)
	}
	if r.JobsPerSecond > 0 {
		fmt.Fprintf(&sb, "throughput: %.1f contracts/s\n", r.JobsPerSecond)
	}
	if r.Retried > 0 || r.Degraded > 0 || r.Replayed > 0 {
		fmt.Fprintf(&sb, "resilience: %d retried, %d degraded, %d replayed from journal\n",
			r.Retried, r.Degraded, r.Replayed)
	}
	if r.TerminalFailures > 0 {
		fmt.Fprintf(&sb, "terminal failures: %d\n", r.TerminalFailures)
		for _, cl := range failure.Classes {
			if n := r.PerFailure[cl]; n > 0 {
				fmt.Fprintf(&sb, "  failures[%s] %d\n", cl, n)
			}
		}
		if n := r.PerFailure[failure.Unclassified]; n > 0 {
			fmt.Fprintf(&sb, "  failures[%s] %d\n", failure.Unclassified, n)
		}
	}
	return sb.String()
}
