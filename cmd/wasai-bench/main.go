// Command wasai-bench regenerates the paper's evaluation tables and
// figures (DESIGN.md's experiment index maps each to its section).
//
// Usage:
//
//	wasai-bench -exp table4 [-scale 0.1] [-seed 1]
//	wasai-bench -exp all    -scale 0.05
//	wasai-bench -exp rq4    -workers 8 -journal rq4.jsonl
//	wasai-bench -exp rq4    -journal rq4.jsonl -resume   # pick up a killed run
//	wasai-bench -exp chaos  -fault-rate 0.2              # resilience smoke
//	wasai-bench -exp servechaos                          # daemon flood smoke
//	wasai-bench -exp memo                                # memoization differential
//	wasai-bench -exp fastvm                              # decoded-IR engine vs tree-walker
//	wasai-bench -exp regress -baseline BENCH_BASELINE.json
//
// Experiments: fig3, table4, table5, table6, rq4 and all, plus chaos,
// servechaos, memo, fastvm, verdict, onchain, adaptive and regress
// (run explicitly; they are not part of "all"). Any other -exp name,
// including the retired incr and triage, is an error. Scale multiplies
// the dataset sizes (1.0 reproduces the full paper-sized benchmark; small
// scales keep the shapes at a fraction of the runtime).
// Workers shards the per-contract campaigns across the campaign engine;
// findings are byte-identical for any worker count.
//
// Memoization: -memo off|on|shared threads the cross-job cache
// (internal/memo) through the fig3/table/rq4 experiments; findings
// are byte-identical either way. -exp memo runs the cache-on/off
// differential at worker counts 1/4/8 and exits non-zero unless digests are
// identical and DPLL solver invocations drop ≥30%. -exp fastvm times a
// compute-heavy module on the decoded-IR engine and the reference
// tree-walker and exits non-zero unless both return the same result and
// fuel and the decoded-IR engine retires ≥2x the instructions/s. -exp
// verdict runs the gate of the abstract-interpretation verdict engine
// (internal/static/absint) — per-class soundness against a dynamic campaign
// in both directions (zero violations), every dynamic finding carrying its
// static candidate flag and every static negative proven by absint, ≥30% of
// the wild (contract, class) verdict matrix decided statically, and
// byte-identical findings digests of the dynamic campaign at worker counts
// 1/4/8. -exp onchain runs the on-chain-data oracle gate: every injected
// fixture (both polarities of all classes plus boilerplate) through full
// campaigns, with perfect per-class precision/recall against generator
// ground truth and byte-identical findings digests at worker counts 1/4/8.
// -adaptive threads the coverage-driven power schedule and campaign fuel
// ledger (internal/schedule) through the fig3/table/rq4 experiments — every
// scheduling decision is a pure function of (seed, observed coverage), so
// results stay byte-identical at any worker count, though NOT to a static
// run of the same budget (the fuel moves). -exp adaptive runs the
// scheduling gate: under equal budgets the adaptive runs must cover at
// least as many branches and score at least as many ground-truth findings
// as the static round-robin on every corpus, strictly more coverage on at
// least one, with digest identity at workers 1/4/8 and across a journal
// kill+resume. -exp regress
// runs the fixed benchmark workload (wall-clock is the median of three
// legs; solver counters are single-leg exact), writes a BENCH_<date>.json
// record (-out overrides the path) and compares it against the committed
// baseline (-baseline, default BENCH_BASELINE.json), failing on digest
// changes or >10% solver/wall regressions; -write-baseline regenerates the
// baseline after an intentional change.
//
// Profiling: -cpuprofile and -memprofile write pprof profiles of whatever
// experiment ran (`make profile` captures the regress workload), so perf
// work starts from evidence instead of guesses.
//
// Resilience: -journal checkpoints the rq4 sweep to an append-only JSONL
// file and -resume replays completed contracts from it after a crash or
// kill; -retries re-attempts failed contracts with degraded budgets. Any
// terminal (post-retry) job failure makes wasai-bench exit non-zero after
// printing the per-failure-class counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/memo"
)

// experiments lists every -exp name: fig3 through all run under "all",
// chaos and the rest only when named.
var experiments = []string{
	"fig3", "table4", "table5", "table6", "rq4", "all",
	"chaos", "servechaos", "memo", "fastvm", "verdict", "onchain", "adaptive", "regress",
}

// checkExp rejects an -exp name no experiment answers to, so a typo or a
// retired experiment fails instead of silently running nothing.
func checkExp(name string) error {
	if slices.Contains(experiments, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experiments, ", "))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wasai-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|")+" (chaos onward run only when named)")
		scale     = flag.Float64("scale", 0.1, "dataset scale factor (0,1]")
		seed      = flag.Int64("seed", 1, "generation seed")
		iters     = flag.Int("iterations", 240, "fuzzing budget per contract")
		workers   = flag.Int("workers", 0, "campaign-engine worker count (0 = GOMAXPROCS); findings are identical for any value")
		svg       = flag.String("svg", "", "fig3: also write the figure as an SVG to this path")
		journal   = flag.String("journal", "", "rq4: checkpoint the sweep to this JSONL journal")
		resume    = flag.Bool("resume", false, "rq4: replay contracts already recorded in -journal instead of re-running them")
		retries   = flag.Int("retries", 1, "max attempts per contract; attempts after the first run with degraded budgets")
		faultRate = flag.Float64("fault-rate", 0.2, "chaos: fraction of jobs whose first attempt is faulted")
		memoFlag  = flag.String("memo", "", "cross-job memoization: off|on|shared (empty = off); findings are identical either way")
		baseline  = flag.String("baseline", "BENCH_BASELINE.json", "regress: committed baseline record to compare against")
		outPath   = flag.String("out", "", "regress: where to write the fresh record (default BENCH_<date>.json)")
		writeBase = flag.Bool("write-baseline", false, "regress: (re)write -baseline from this run instead of comparing")
		adaptive  = flag.Bool("adaptive", false, "coverage-driven power schedule + campaign fuel ledger; deterministic at any worker count but NOT digest-neutral vs a static run")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	flag.Parse()
	if err := checkExp(*exp); err != nil {
		return err
	}
	memoMode, err := memo.ParseMode(*memoFlag)
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wasai-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wasai-bench: memprofile:", err)
			}
		}()
	}

	opts := bench.Options{Scale: *scale, Seed: *seed}
	// The engine options of the fig3, table and rq4 campaigns.
	engine := campaign.Config{Workers: *workers, Memo: memoMode, Adaptive: *adaptive}
	evalCfg := bench.DefaultEvalConfig()
	evalCfg.FuzzIterations = *iters
	evalCfg.Seed = *seed
	evalCfg.Engine = engine
	tools := []bench.Tool{bench.ToolWASAI, bench.ToolEOSFuzzer, bench.ToolEOSAFE}

	runExp := func(name string, f func() error) error {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		return nil
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig3") {
		if err := runExp("Figure 3 (RQ1 code coverage)", func() error {
			cfg := bench.DefaultCoverageConfig()
			cfg.Seed = *seed
			cfg.Iterations = *iters
			cfg.Engine = engine
			cfg.NumContracts = int(float64(cfg.NumContracts) * *scale)
			if cfg.NumContracts < 5 {
				cfg.NumContracts = 5
			}
			series, err := bench.EvaluateCoverage(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderCoverage(series))
			if *svg != "" {
				if err := os.WriteFile(*svg, []byte(bench.RenderCoverageSVG(series)), 0o644); err != nil {
					return err
				}
				fmt.Printf("figure written to %s\n", *svg)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table4") {
		if err := runExp("Table 4 (RQ2 ground-truth accuracy)", func() error {
			ds, err := bench.BuildGroundTruth(bench.Table4Counts, opts)
			if err != nil {
				return err
			}
			res, err := bench.EvaluateAccuracy(ds, tools, evalCfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAccuracyTable("Table 4", ds, res))
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table5") {
		if err := runExp("Table 5 (RQ3 code obfuscation)", func() error {
			ds, err := bench.BuildGroundTruth(bench.Table4Counts, opts)
			if err != nil {
				return err
			}
			obf, err := bench.Obfuscate(ds, *seed)
			if err != nil {
				return err
			}
			res, err := bench.EvaluateAccuracy(obf, tools, evalCfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAccuracyTable("Table 5", obf, res))
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table6") {
		if err := runExp("Table 6 (RQ3 complicated verification)", func() error {
			ds, err := bench.BuildVerification(bench.Table6Counts, opts)
			if err != nil {
				return err
			}
			res, err := bench.EvaluateAccuracy(ds, tools, evalCfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAccuracyTable("Table 6", ds, res))
			return nil
		}); err != nil {
			return err
		}
	}
	if want("rq4") {
		if err := runExp("RQ4 (vulnerabilities in the wild)", func() error {
			cfg := bench.DefaultWildConfig()
			cfg.Seed = *seed
			cfg.FuzzIterations = *iters
			cfg.Engine = engine
			cfg.Engine.Journal = *journal
			cfg.Engine.Resume = *resume
			cfg.Engine.Retry = campaign.RetryPolicy{MaxAttempts: *retries}
			cfg.NumContracts = int(float64(cfg.NumContracts) * *scale)
			if cfg.NumContracts < 20 {
				cfg.NumContracts = 20
			}
			res, err := bench.EvaluateWild(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderWild(res))
			if res.TerminalFailures > 0 {
				return fmt.Errorf("%d contracts failed terminally (see failure-class counts above)", res.TerminalFailures)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "memo" {
		if err := runExp("Memo (cross-job memoization differential)", func() error {
			cfg := bench.DefaultMemoConfig()
			cfg.Seed = *seed
			cfg.FuzzIterations = *iters
			res, err := bench.EvaluateMemo(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderMemo(res))
			if !res.Passed() {
				return fmt.Errorf("memo experiment failed: digests identical=%v, min DPLL reduction %.1f%% (need ≥30%%)",
					res.DigestMatch, 100*res.MinReduction())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "fastvm" {
		if err := runExp("FastVM (decoded-IR engine vs tree-walker)", func() error {
			res, err := bench.EvaluateFastVM(bench.DefaultFastVMConfig())
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderFastVM(res))
			if !res.Passed() {
				return fmt.Errorf("fastvm experiment failed: agreement=%v, speedup %.2fx (need >=2x)",
					res.ResultsMatch, res.Speedup())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "verdict" {
		if err := runExp("Verdict (abstract-interpretation verdict engine)", func() error {
			cfg := bench.DefaultVerdictConfig()
			cfg.Seed = *seed
			cfg.FuzzIterations = *iters
			res, err := bench.EvaluateVerdict(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderVerdict(res))
			if !res.Passed() {
				return fmt.Errorf("verdict experiment failed: %s", res.Failure())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "onchain" {
		if err := runExp("OnChain (on-chain-data oracle P/R gate)", func() error {
			cfg := bench.DefaultOnChainConfig()
			cfg.Seed = *seed
			cfg.FuzzIterations = *iters
			res, err := bench.EvaluateOnChain(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderOnChain(res))
			if !res.Passed() {
				return fmt.Errorf("onchain experiment failed: %d P/R violations, digests identical=%v",
					res.Violations(), res.DigestMatch)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "adaptive" {
		if err := runExp("Adaptive (coverage-driven scheduling differential)", func() error {
			cfg := bench.DefaultAdaptiveConfig()
			if *workers > 0 {
				cfg.Workers = *workers
			}
			res, err := bench.EvaluateAdaptive(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAdaptive(res))
			if !res.Passed() {
				return fmt.Errorf("adaptive experiment failed: coverage≥static=%v findings≥static=%v strictly-better=%v budget=%v digests=%v resume=%v",
					res.CoverageNeverWorse(), res.FindingsNeverWorse(), res.StrictlyBetter(),
					res.BudgetRespected(), res.DigestMatch, res.ResumeMatch)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "regress" {
		if err := runExp("Regress (benchmark regression vs baseline)", func() error {
			cfg := bench.DefaultRegressConfig()
			current, err := bench.RunRegress(cfg)
			if err != nil {
				return err
			}
			if *writeBase {
				if err := bench.WriteRegress(*baseline, current); err != nil {
					return err
				}
				fmt.Print(bench.RenderRegress(nil, current, nil))
				fmt.Printf("baseline written to %s\n", *baseline)
				return nil
			}
			out := *outPath
			if out == "" {
				out = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
			}
			if err := bench.WriteRegress(out, current); err != nil {
				return err
			}
			base, err := bench.LoadRegress(*baseline)
			if err != nil {
				return fmt.Errorf("no usable baseline (run with -write-baseline or make bench-baseline): %w", err)
			}
			problems := bench.CompareRegress(base, current)
			fmt.Print(bench.RenderRegress(base, current, problems))
			fmt.Printf("record written to %s\n", out)
			if len(problems) > 0 {
				return fmt.Errorf("benchmark regression: %d problem(s), see above", len(problems))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "chaos" {
		if err := runExp("Chaos (campaign resilience under fault injection)", func() error {
			cfg := bench.DefaultChaosConfig()
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.FaultRate = *faultRate
			if *retries > 1 {
				cfg.MaxAttempts = *retries
			}
			res, err := bench.EvaluateChaos(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderChaos(res))
			if !res.Passed() {
				return fmt.Errorf("chaos experiment failed: %d terminal failures, %d verdict mismatches",
					res.TerminalFailures, res.VerdictMismatches)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "servechaos" {
		if err := runExp("Serve-chaos (daemon admission + digest identity under flood)", func() error {
			cfg := bench.DefaultServeChaosConfig()
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.FaultRate = *faultRate
			if *retries > 1 {
				cfg.MaxAttempts = *retries
			}
			res, err := bench.EvaluateServeChaos(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderServeChaos(res))
			if !res.Passed() {
				return fmt.Errorf("servechaos experiment failed: shed=%d failed=%d mismatches=%d tenants=%d/%d",
					res.Shed, res.Failed, res.DigestMismatches, res.TenantsAdmitted, res.Tenants)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
