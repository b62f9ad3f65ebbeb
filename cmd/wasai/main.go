// Command wasai fuzzes one EOSIO Wasm contract and prints its
// vulnerability report.
//
// Usage:
//
//	wasai -wasm contract.wasm -abi contract.abi.json [-iterations N] [-seed S]
//	wasai -demo [-vulnerable=false]    # run against a built-in sample
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	wasai "repro"
	"repro/internal/contractgen"
	"repro/internal/wasm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wasai:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wasmPath   = flag.String("wasm", "", "path to the contract .wasm binary")
		abiPath    = flag.String("abi", "", "path to the contract ABI (JSON)")
		iterations = flag.Int("iterations", 240, "fuzzing transaction budget")
		seed       = flag.Int64("seed", 1, "campaign random seed")
		demo       = flag.Bool("demo", false, "analyze a built-in demo contract instead of files")
		traceOut   = flag.String("trace-out", "", "write the captured traces to this offline file")
		vulnerable = flag.Bool("vulnerable", true, "demo: generate the vulnerable variant")
		memoMode   = flag.String("memo", "", "solver memoization: off|on|shared (empty = off); findings are identical either way")
		storeDir   = flag.String("store", "", "disk-backed memo store directory shared across runs (implies memoization); findings are identical either way")
		verdicts   = flag.Bool("verdicts", false, "print per-class static verdicts and skip fuzzing when all classes are proven negative; findings are identical either way")
		adaptive   = flag.Bool("adaptive", false, "coverage-driven power schedule: energy-weighted payload/action/seed selection and DBG-aware sequence mutation")
		satWindow  = flag.Int("saturation-window", 0, "adaptive: stop after this many iterations without new coverage (0 = engine default)")
	)
	flag.Parse()

	cfg := wasai.DefaultConfig()
	cfg.Iterations = *iterations
	cfg.Seed = *seed
	cfg.TraceFile = *traceOut
	cfg.Memo = *memoMode
	cfg.StoreDir = *storeDir
	cfg.Verdicts = *verdicts
	cfg.Adaptive = *adaptive
	cfg.SaturationWindow = *satWindow

	var (
		bin     []byte
		abiJSON []byte
		err     error
	)
	switch {
	case *demo:
		c, genErr := contractgen.Generate(contractgen.Spec{
			Class:      contractgen.ClassFakeEOS,
			Vulnerable: *vulnerable,
			Seed:       *seed,
		})
		if genErr != nil {
			return genErr
		}
		if bin, err = wasm.Encode(c.Module); err != nil {
			return err
		}
		if abiJSON, err = json.Marshal(c.ABI); err != nil {
			return err
		}
		fmt.Printf("analyzing built-in demo contract (vulnerable=%v)\n", *vulnerable)
	case *wasmPath != "" && *abiPath != "":
		if bin, err = os.ReadFile(*wasmPath); err != nil {
			return err
		}
		if abiJSON, err = os.ReadFile(*abiPath); err != nil {
			return err
		}
	default:
		flag.Usage()
		return fmt.Errorf("need -wasm and -abi, or -demo")
	}

	if *verdicts {
		vr, err := wasai.AnalyzeVerdicts(bin, abiJSON)
		if err != nil {
			return err
		}
		fmt.Printf("static verdicts: complete=%v paths=%d dead-edges=%d\n",
			vr.Complete, vr.Paths, vr.DeadEdges)
		for _, v := range vr.Verdicts {
			fmt.Printf("  %-14s %-15s %s\n", v.Class, v.Verdict, v.Reason)
			if v.Scenario != "" {
				fmt.Printf("  %-14s witness: scenario=%s", "", v.Scenario)
				if v.Action != "" {
					fmt.Printf(" action=%s", v.Action)
				}
				for _, a := range v.Assumptions {
					fmt.Printf(" %s", a)
				}
				fmt.Println()
			}
		}
	}

	report, err := wasai.Analyze(bin, abiJSON, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("campaign: %d transactions, %d distinct branches, %d adaptive seeds\n",
		report.Iterations, report.Coverage, report.AdaptiveSeeds)
	for _, f := range report.Findings {
		mark := "safe"
		if f.Vulnerable {
			mark = "VULNERABLE"
		}
		fmt.Printf("  %-14s %s\n", f.Class, mark)
	}
	if report.Vulnerable() {
		os.Exit(2)
	}
	return nil
}
