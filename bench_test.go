package wasai

// bench_test.go regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) as testing.B benchmarks,
// plus the ablation benches for the design choices DESIGN.md calls out.
// The dataset scale is reduced (same construction, fewer samples) so the
// suite completes in CI time; cmd/wasai-bench runs the full-size versions.
//
// Shape metrics (coverage ratios, F1 scores) are emitted via
// b.ReportMetric, so `go test -bench . -benchmem` shows the reproduced
// numbers next to the timing.

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

const benchScale = 0.02 // ~66 of the 3,340 ground-truth samples

// BenchmarkFigure3Coverage reproduces RQ1: cumulative distinct branches of
// WASAI vs EOSFuzzer on the same corpus. Reported metric: the final
// WASAI/EOSFuzzer coverage ratio (the paper reports ≈2x).
func BenchmarkFigure3Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultCoverageConfig()
		cfg.NumContracts = 12
		cfg.Seed = int64(i + 1)
		series, err := bench.EvaluateCoverage(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := func(s bench.CoverageSeries) float64 {
			return float64(s.Points[len(s.Points)-1].Branches)
		}
		if e := last(series[1]); e > 0 {
			b.ReportMetric(last(series[0])/e, "coverage-ratio")
		}
	}
}

// accuracyBench runs one tool over a dataset builder and reports total F1.
func accuracyBench(b *testing.B, build func(seed int64) (*bench.Dataset, error), tool bench.Tool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ds, err := build(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := bench.EvaluateAccuracy(ds, []bench.Tool{tool}, bench.DefaultEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		total := bench.Total(res[0].PerClass)
		b.ReportMetric(100*total.F1(), "F1-%")
		b.ReportMetric(100*total.Precision(), "P-%")
		b.ReportMetric(100*total.Recall(), "R-%")
	}
}

func buildTable4(seed int64) (*bench.Dataset, error) {
	return bench.BuildGroundTruth(bench.Table4Counts, bench.Options{Scale: benchScale, Seed: seed})
}

func buildTable5(seed int64) (*bench.Dataset, error) {
	ds, err := buildTable4(seed)
	if err != nil {
		return nil, err
	}
	return bench.Obfuscate(ds, seed)
}

func buildTable6(seed int64) (*bench.Dataset, error) {
	return bench.BuildVerification(bench.Table6Counts, bench.Options{Scale: benchScale, Seed: seed})
}

// BenchmarkTable4 rows: WASAI / EOSFuzzer / EOSAFE on the ground-truth set.
func BenchmarkTable4WASAI(b *testing.B)     { accuracyBench(b, buildTable4, bench.ToolWASAI) }
func BenchmarkTable4EOSFuzzer(b *testing.B) { accuracyBench(b, buildTable4, bench.ToolEOSFuzzer) }
func BenchmarkTable4EOSAFE(b *testing.B)    { accuracyBench(b, buildTable4, bench.ToolEOSAFE) }

// BenchmarkTable5 rows: the same set obfuscated (popcount + opaque recursion).
func BenchmarkTable5WASAI(b *testing.B)     { accuracyBench(b, buildTable5, bench.ToolWASAI) }
func BenchmarkTable5EOSFuzzer(b *testing.B) { accuracyBench(b, buildTable5, bench.ToolEOSFuzzer) }
func BenchmarkTable5EOSAFE(b *testing.B)    { accuracyBench(b, buildTable5, bench.ToolEOSAFE) }

// BenchmarkTable6 rows: complicated verification injected at action entries.
func BenchmarkTable6WASAI(b *testing.B)     { accuracyBench(b, buildTable6, bench.ToolWASAI) }
func BenchmarkTable6EOSFuzzer(b *testing.B) { accuracyBench(b, buildTable6, bench.ToolEOSFuzzer) }
func BenchmarkTable6EOSAFE(b *testing.B)    { accuracyBench(b, buildTable6, bench.ToolEOSAFE) }

// BenchmarkRQ4Wild reproduces the §4.4 study at reduced population size and
// reports the flagged fraction (the paper reports 71.3%).
func BenchmarkRQ4Wild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultWildConfig()
		cfg.NumContracts = 40
		cfg.Seed = int64(i + 1)
		res, err := bench.EvaluateWild(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(res.Flagged)/float64(res.Total), "flagged-%")
	}
}

// --- Ablation benches (design choices from DESIGN.md) -----------------------

// BenchmarkAblationFeedback compares branch coverage with and without the
// Symback feedback loop on a branch-guarded contract.
func BenchmarkAblationFeedback(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	spec := contractgen.RandomSpec(contractgen.ClassRollback, true, rng)
	c, err := contractgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	run := func(disable bool, seed int64) int {
		f, err := fuzz.New(c.Module, c.ABI, fuzz.Config{
			Iterations: 120, SolverConflicts: 50_000, Seed: seed, DisableFeedback: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Coverage
	}
	for i := 0; i < b.N; i++ {
		with := run(false, int64(i+1))
		without := run(true, int64(i+1))
		if without > 0 {
			b.ReportMetric(float64(with)/float64(without), "coverage-gain")
		}
	}
}

// BenchmarkAblationDBG measures detection of a DB-dependent vulnerability
// with and without the database dependency graph.
func BenchmarkAblationDBG(b *testing.B) {
	spec := contractgen.Spec{
		Class: contractgen.ClassRollback, Vulnerable: true, DBDependent: true, Seed: 9,
	}
	c, err := contractgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	detected := func(disable bool, seed int64) float64 {
		f, err := fuzz.New(c.Module, c.ABI, fuzz.Config{
			Iterations: 120, SolverConflicts: 50_000, Seed: seed, DisableDBG: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Vulnerable[contractgen.ClassRollback] {
			return 1
		}
		return 0
	}
	var withDBG, withoutDBG float64
	for i := 0; i < b.N; i++ {
		withDBG += detected(false, int64(i+1))
		withoutDBG += detected(true, int64(i+1))
	}
	b.ReportMetric(100*withDBG/float64(b.N), "dbg-detect-%")
	b.ReportMetric(100*withoutDBG/float64(b.N), "nodbg-detect-%")
}

// BenchmarkMemoryModel compares the trace-keyed byte-map memory model
// (§3.4.1) against the EOSAFE-style scan-all-items model on the same
// store/load workload.
func BenchmarkMemoryModel(b *testing.B) {
	const ops = 512
	b.Run("wasai-bytemap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := symbolic.NewCtx()
			m := symexec.NewMemory(ctx)
			v := ctx.Var("x", 64)
			for j := 0; j < ops; j++ {
				m.Store(uint32(j*8), 8, v)
			}
			for j := 0; j < ops; j++ {
				_ = m.Load(uint32(j*8), 8)
			}
		}
	})
	b.Run("eosafe-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := symbolic.NewCtx()
			m := symexec.NewNaiveMemory(ctx)
			v := ctx.Var("x", 64)
			for j := 0; j < ops; j++ {
				m.Store(uint32(j*8), 8, v)
			}
			for j := 0; j < ops; j++ {
				_ = m.Load(uint32(j*8), 8)
			}
		}
	})
}

// BenchmarkSolverFastPath compares the concrete-probing fast path against
// pure bit-blasting on typical fuzzing constraints.
func BenchmarkSolverFastPath(b *testing.B) {
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 64)
	y := ctx.Var("y", 64)
	constraints := []*symbolic.Expr{
		ctx.Eq(ctx.Add(x, ctx.Const(77, 64)), ctx.Const(123456, 64)),
		ctx.Ult(y, ctx.Const(1000, 64)),
	}
	b.Run("fastpath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &symbolic.Solver{}
			if _, r := s.Solve(constraints); r != symbolic.Sat {
				b.Fatal("unsat")
			}
		}
	})
	b.Run("bitblast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &symbolic.Solver{DisableFastPath: true}
			if _, r := s.Solve(constraints); r != symbolic.Sat {
				b.Fatal("unsat")
			}
		}
	})
}

// --- Micro benches over the substrates --------------------------------------

// BenchmarkInterpreter measures raw Wasm execution throughput (sum loop).
func BenchmarkInterpreter(b *testing.B) {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []uint32{ti}
	m.Code = []wasm.Code{{
		Locals: []wasm.LocalDecl{{Count: 2, Type: wasm.I64}},
		Body: []wasm.Instr{
			wasm.Block(), wasm.Loop(),
			wasm.LocalGet(1), wasm.LocalGet(0), wasm.Op0(wasm.OpI64GeU), wasm.BrIf(1),
			wasm.LocalGet(1), wasm.I64Const(1), wasm.Op0(wasm.OpI64Add), wasm.LocalSet(1),
			wasm.LocalGet(2), wasm.LocalGet(1), wasm.Op0(wasm.OpI64Add), wasm.LocalSet(2),
			wasm.Br(0), wasm.End(), wasm.End(),
			wasm.LocalGet(2), wasm.End(),
		},
	}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}}
	c, err := exec.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := c.Link(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := exec.NewVM(inst)
		if _, err := vm.Invoke("f", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrument measures the bytecode-rewriting throughput.
func BenchmarkInstrument(b *testing.B) {
	c, err := contractgen.Generate(contractgen.Spec{Class: contractgen.ClassRollback, Vulnerable: true, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instrumentOnce(c.Module); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndCampaign measures one full WASAI campaign.
func BenchmarkEndToEndCampaign(b *testing.B) {
	c, err := contractgen.Generate(contractgen.Spec{Class: contractgen.ClassFakeNotif, Vulnerable: true, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := AnalyzeModule(c.Module, c.ABI, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if f, _ := report.Class("Fake Notif"); !f.Vulnerable {
			b.Fatal("campaign missed the planted vulnerability")
		}
	}
}

// BenchmarkAblationInputInference ablates the §3.4.2 calling-convention
// input inference: without the Table-2 mapping from transaction payload to
// action arguments, flipped constraints cannot become seeds and guarded
// code stays unreached.
func BenchmarkAblationInputInference(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	spec := contractgen.RandomSpec(contractgen.ClassRollback, true, rng)
	spec.DBDependent = false
	c, err := contractgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	detect := func(opaque bool, seed int64) (bool, int) {
		f, err := fuzz.New(c.Module, c.ABI, fuzz.Config{
			Iterations: 240, SolverConflicts: 50_000, Seed: seed, OpaqueInputs: opaque,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Report.Vulnerable[contractgen.ClassRollback], res.AdaptiveSeeds
	}
	var withHit, withoutHit float64
	for i := 0; i < b.N; i++ {
		if hit, _ := detect(false, int64(i+1)); hit {
			withHit++
		}
		if hit, seeds := detect(true, int64(i+1)); hit {
			withoutHit++
		} else if seeds != 0 {
			b.Fatalf("opaque replay still produced %d adaptive seeds", seeds)
		}
	}
	b.ReportMetric(100*withHit/float64(b.N), "inference-detect-%")
	b.ReportMetric(100*withoutHit/float64(b.N), "opaque-detect-%")
}
