// Package wasai is the public API of this repository: a concolic fuzzer
// that uncovers vulnerabilities in WebAssembly (EOSIO) smart contracts,
// reproducing "WASAI: Uncovering Vulnerabilities in Wasm Smart Contracts"
// (ISSTA 2022 / ICDCS 2023 poster).
//
// # Overview
//
// Given a contract's Wasm binary and its ABI, Analyze instruments the
// bytecode with trace hooks, spins up a local EOSIO chain with the
// adversary-oracle agent contracts (a counterfeit EOS token and a
// notification forwarder), and runs a concolic fuzzing campaign: concrete
// executions produce traces, a symbolic backend replays them to build path
// constraints over the transaction inputs, and flipped constraints are
// solved into adaptive seeds that steer execution into unexplored branches.
// Five trace oracles flag the EOSIO vulnerability classes: Fake EOS, Fake
// Notification, Missing Authorization, Blockinfo Dependency, and Rollback.
//
// # Quick start
//
//	report, err := wasai.Analyze(wasmBytes, abiJSON, wasai.DefaultConfig())
//	if err != nil { ... }
//	for _, f := range report.Findings {
//	    fmt.Printf("%-14s vulnerable=%v\n", f.Class, f.Vulnerable)
//	}
//
// See examples/ for runnable end-to-end scenarios and cmd/wasai for the
// command-line interface.
package wasai

import (
	"context"
	"fmt"
	"os"

	"repro/internal/abi"
	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// Config tunes an analysis campaign.
type Config struct {
	// Iterations is the fuzzing transaction budget — the deterministic
	// analogue of the paper's five-minute wall-clock timeout.
	Iterations int
	// SolverConflicts caps each SMT query's search effort — the analogue of
	// the paper's 3,000 ms per-query limit.
	SolverConflicts int64
	// DisableFeedback turns off the symbolic-execution feedback loop,
	// degrading WASAI into a black-box fuzzer (used by the ablation bench).
	DisableFeedback bool
	// Seed makes the campaign reproducible.
	Seed int64
	// TraceFile, when non-empty, receives every captured target trace in
	// the offline-file format of internal/trace (the paper's §3.3.1
	// "redirect the traces to offline files").
	TraceFile string
	// CustomAPIDetectors registers extension oracles (paper §5): each
	// flags the contract when any of its named host APIs is executed.
	CustomAPIDetectors []APIDetector
	// Memo selects cross-job memoization ("off"/""/default, "on",
	// "shared"; see internal/memo): canonicalized solver-query verdicts,
	// the verdict engine's reports and, in a batch, decoded modules are
	// reused instead of recomputed. "on" scopes the cache to one campaign
	// or batch, "shared" to the whole process. Memoization never changes
	// findings; it only removes duplicated work.
	Memo string
	// StoreDir, when non-empty, backs the memo with the disk-based
	// content-addressed store at that directory (internal/store), shared
	// across processes and restarts: solver verdicts persist and warm
	// runs answer repeated queries from disk. Implies memoization (a
	// private cache when Memo is off). Corrupt or version-mismatched
	// entries degrade to cache misses — they can cost a solver call,
	// never change a finding.
	StoreDir string
	// Deprecated: has no effect. The incremental solver pre-pass was
	// removed; every flip query goes to the fresh solver pool.
	Incremental bool
	// Deprecated: has no effect. Contract execution always runs on the
	// decoded-IR engine.
	FastVM bool
	// Adaptive enables the coverage-driven power schedule
	// (internal/schedule): payload/action arms and seed-pool entries carry
	// energy scores updated from coverage deltas, and the DBG writer→reader
	// composite arm mutates call sequences. In a batch (AnalyzeBatch /
	// Campaign) it additionally runs the campaign fuel ledger: saturated
	// jobs return unspent iterations at a barrier and the campaign regrants
	// them to still-progressing jobs. Every decision is a pure function of
	// (seed, observed coverage), so adaptive results are identical at any
	// worker count; Adaptive=false is byte-identical to previous releases.
	Adaptive bool
	// SaturationWindow is the adaptive saturation horizon: a campaign whose
	// coverage has not grown for this many iterations stops early and
	// returns its unspent budget. 0 uses the engine default. Ignored unless
	// Adaptive.
	SaturationWindow int
	// Verdicts runs the abstract-interpretation verdict engine
	// (internal/static/absint) before fuzzing. A contract whose eight
	// classes are all proven negative is answered immediately with the
	// all-clean report the campaign would have produced (its execution
	// counters are zero); everything else fuzzes as usual. Trace capture
	// and custom detectors disable the shortcut — proofs say nothing
	// about them. Findings are identical on/off; see AnalyzeVerdicts for
	// the verdicts themselves.
	Verdicts bool
}

// APIDetector declares a custom oracle over host-API usage: the detector
// fires when the fuzzed contract executes a call to any of the APIs.
type APIDetector struct {
	// Name labels the detector in Report.Custom.
	Name string
	// APIs are EOSIO host-function names, e.g. "current_time".
	APIs []string
}

// DefaultConfig returns the evaluation configuration of the paper's setup.
func DefaultConfig() Config {
	return Config{Iterations: 240, SolverConflicts: 50_000, Seed: 1}
}

// Finding is one vulnerability-class verdict.
type Finding struct {
	// Class is the vulnerability class name: "Fake EOS", "Fake Notif",
	// "MissAuth", "BlockinfoDep", "Rollback", "StateTamper", "OrderDep"
	// or "CrossContract".
	Class string
	// Vulnerable reports whether the campaign's oracle flagged the class.
	Vulnerable bool
}

// Report is the outcome of one analysis campaign.
type Report struct {
	// Findings holds one entry per vulnerability class, in the paper's
	// table order.
	Findings []Finding
	// Coverage is the number of distinct branches explored in the target.
	Coverage int
	// AdaptiveSeeds counts fuzzing inputs produced by constraint solving.
	AdaptiveSeeds int
	// Iterations is the number of transactions executed.
	Iterations int
	// Custom maps each registered APIDetector name to its verdict.
	Custom map[string]bool
}

// Vulnerable reports whether any class was flagged.
func (r *Report) Vulnerable() bool {
	for _, f := range r.Findings {
		if f.Vulnerable {
			return true
		}
	}
	return false
}

// Class returns the finding for the named class.
func (r *Report) Class(name string) (Finding, bool) {
	for _, f := range r.Findings {
		if f.Class == name {
			return f, true
		}
	}
	return Finding{}, false
}

// Analyze runs a WASAI campaign against the contract binary with its ABI
// (in the simplified EOSIO ABI JSON form; see the abi package).
func Analyze(wasmBin []byte, abiJSON []byte, cfg Config) (*Report, error) {
	mod, contractABI, err := BatchJob{Wasm: wasmBin, ABIJSON: abiJSON}.decode(nil)
	if err != nil {
		return nil, fmt.Errorf("wasai: %w", err)
	}
	return AnalyzeModule(mod, contractABI, cfg)
}

// AnalyzeModule is Analyze for an already-decoded module and ABI. It runs
// the contract as a one-job campaign, so a panic comes back as a
// classified error.
func AnalyzeModule(mod *wasm.Module, contractABI *abi.ABI, cfg Config) (*Report, error) {
	// Even a single campaign profits from the solver tier: the concolic
	// loop re-solves unflippable branch queries every time coverage grows.
	cache, err := cfg.openMemo()
	if err != nil {
		return nil, err
	}
	job := cfg.job(0, "", mod, contractABI, cfg.Seed)
	job.Config.KeepTraces = cfg.TraceFile != ""
	// The campaign's fuel ledger stays off: it would regrant a lone job its
	// own unspent budget, and a single contract's adaptive schedule stops
	// at saturation.
	rep, err := campaign.Run(context.Background(), []campaign.Job{job}, campaign.Config{
		Workers:   1,
		Verdicts:  cfg.Verdicts,
		MemoCache: cache,
	})
	if err != nil {
		return nil, fmt.Errorf("wasai: %w", err)
	}
	res := rep.Results[0]
	if res.Err != nil {
		return nil, fmt.Errorf("wasai: %w", res.Err)
	}
	if cfg.TraceFile != "" {
		out, err := os.Create(cfg.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("wasai: trace file: %w", err)
		}
		defer out.Close()
		if err := trace.Write(out, res.Result.Traces); err != nil {
			return nil, fmt.Errorf("wasai: write traces: %w", err)
		}
	}
	return newReport(res.Result), nil
}

// openMemo resolves the configuration's memo cache: nil when memoization
// is off and no StoreDir is set. StoreDir backs the cache with the shared
// disk store and implies memoization (a private cache when Memo is off).
// Memo="shared" then uses the per-store shared cache, never the plain
// process-wide one: attaching the store there would leak this run's disk
// tier into every later shared campaign (see memo.SharedWithDisk).
func (cfg Config) openMemo() (*memo.Cache, error) {
	mode, err := memo.ParseMode(cfg.Memo)
	if err != nil {
		return nil, fmt.Errorf("wasai: %w", err)
	}
	if cfg.StoreDir == "" {
		return memo.ForMode(mode), nil
	}
	disk, err := store.OpenShared(store.Options{Dir: cfg.StoreDir})
	if err != nil {
		return nil, fmt.Errorf("wasai: memo store: %w", err)
	}
	if mode == memo.ModeShared {
		return memo.SharedWithDisk(disk), nil
	}
	cache := memo.ForMode(mode)
	if cache == nil {
		cache = memo.New()
	}
	cache.AttachDisk(disk)
	return cache, nil
}

// newReport converts a campaign result to the public report.
func newReport(res *fuzz.Result) *Report {
	report := &Report{
		Coverage:      res.Coverage,
		AdaptiveSeeds: res.AdaptiveSeeds,
		Iterations:    res.Iterations,
		Custom:        res.Custom,
	}
	for _, class := range contractgen.Classes {
		report.Findings = append(report.Findings, Finding{
			Class:      class.String(),
			Vulnerable: res.Report.Vulnerable[class],
		})
	}
	return report
}
