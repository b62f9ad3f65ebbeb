package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// fastvm.go is the decoded-IR engine experiment. It drives a
// compute-heavy module through both engines directly at the exec API,
// counting executed instructions via the fuel meter (the engines consume
// byte-identical fuel on success, so one instruction count describes both
// runs). Wall-clock is the median of several legs per engine; the gate
// requires the decoded-IR engine to retire at least 2x the instructions per
// second of the tree-walker, with the same result and fuel. `wasai-bench
// -exp fastvm` exits non-zero when it fails. Campaign-level equivalence of
// the engines is pinned by golden digests in internal/campaign instead:
// the chain has only the one engine.

// FastVMConfig tunes the fast-engine experiment.
type FastVMConfig struct {
	// HotIters is the loop trip count of the throughput module; each
	// iteration retires a fixed instruction mix (arithmetic, locals,
	// loads, stores, branches).
	HotIters int64
	// Legs is the number of timed runs per engine (the median is used).
	Legs int
}

// DefaultFastVMConfig is the acceptance-gate shape: a throughput module
// hot enough that per-run noise stays well under the 2x bar.
func DefaultFastVMConfig() FastVMConfig {
	return FastVMConfig{HotIters: 400_000, Legs: 3}
}

// FastVMResult is the engine-level differential on the hot module.
type FastVMResult struct {
	// Instructions is the fuel both engines consumed per invocation.
	Instructions int64
	// OffWall and OnWall are the median wall-clock times per invocation
	// on the tree-walker and the decoded-IR engine.
	OffWall, OnWall time.Duration
	// ResultsMatch reports that both engines returned the same value and
	// consumed the same fuel.
	ResultsMatch bool
}

// OffIPS is the tree-walker's instructions per second.
func (r *FastVMResult) OffIPS() float64 {
	if r.OffWall <= 0 {
		return 0
	}
	return float64(r.Instructions) / r.OffWall.Seconds()
}

// OnIPS is the decoded-IR engine's instructions per second.
func (r *FastVMResult) OnIPS() float64 {
	if r.OnWall <= 0 {
		return 0
	}
	return float64(r.Instructions) / r.OnWall.Seconds()
}

// Speedup is the throughput ratio (decoded-IR over tree-walker).
func (r *FastVMResult) Speedup() float64 {
	if r.OffIPS() == 0 {
		return 0
	}
	return r.OnIPS() / r.OffIPS()
}

// Passed is the acceptance gate: engine agreement on the hot module and at
// least a 2x instructions-per-second advantage for the decoded-IR engine.
func (r *FastVMResult) Passed() bool {
	return r.ResultsMatch && r.Speedup() >= 2.0
}

// hotModule builds the throughput workload: a single exported function
// looping iters times over a mix of local arithmetic, fused-shape operand
// sequences, and memory traffic — the instruction profile of a busy
// contract action, not a synthetic single-opcode spin.
func hotModule(iters int64) (*wasm.Module, error) {
	const (
		locI   = 0 // loop counter
		locAcc = 1 // accumulator (returned)
		locTmp = 2
	)
	body := []wasm.Instr{
		wasm.Loop(),
		// acc += i ^ (acc >> 3)  — mixed dependent arithmetic.
		wasm.LocalGet(locI),
		wasm.LocalGet(locAcc),
		wasm.I64Const(3),
		wasm.Op0(wasm.OpI64ShrU),
		wasm.Op0(wasm.OpI64Xor),
		wasm.LocalGet(locAcc),
		wasm.Op0(wasm.OpI64Add), // fused local.get+local.get+add shape
		wasm.LocalSet(locAcc),
		// mem[16] = acc; tmp = mem[16] * 0x9e3779b9.
		wasm.I32Const(16),
		wasm.LocalGet(locAcc),
		wasm.Store(wasm.OpI64Store, 0),
		wasm.I32Const(16),
		wasm.Load(wasm.OpI64Load, 0),
		wasm.I64Const(0x9e3779b9),
		wasm.Op0(wasm.OpI64Mul),
		wasm.LocalSet(locTmp),
		// acc ^= tmp rotated into the counter lane.
		wasm.LocalGet(locAcc),
		wasm.LocalGet(locTmp),
		wasm.I64Const(17),
		wasm.Op0(wasm.OpI64Rotl),
		wasm.Op0(wasm.OpI64Xor),
		wasm.LocalSet(locAcc),
		// i++; loop while i < iters.
		wasm.LocalGet(locI),
		wasm.I64Const(1),
		wasm.Op0(wasm.OpI64Add),
		wasm.LocalTee(locI),
		wasm.I64Const(iters),
		wasm.Op0(wasm.OpI64LtU),
		wasm.BrIf(0),
		wasm.End(),
		wasm.LocalGet(locAcc),
	}
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []uint32{ti}
	m.Code = []wasm.Code{{
		Locals: []wasm.LocalDecl{{Count: 3, Type: wasm.I64}},
		Body:   append(body, wasm.End()),
	}}
	m.Exports = []wasm.Export{{Name: "hot", Kind: wasm.ExternalFunc, Index: 0}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("bench: hot module invalid: %v", err)
	}
	return m, nil
}

const hotFuel = int64(1) << 40

// EvaluateFastVM times the hot module on both engines and cross-checks
// their results and fuel.
func EvaluateFastVM(cfg FastVMConfig) (*FastVMResult, error) {
	iters := cfg.HotIters
	if iters <= 0 {
		iters = 400_000
	}
	legs := cfg.Legs
	if legs <= 0 {
		legs = 3
	}
	m, err := hotModule(iters)
	if err != nil {
		return nil, err
	}

	c, err := exec.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("bench: hot compile: %w", err)
	}
	run := func(fast bool) (uint64, int64, time.Duration, error) {
		inst, err := c.Link(nil)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bench: hot link: %w", err)
		}
		var result uint64
		var fuel int64
		walls := make([]time.Duration, 0, legs)
		for l := 0; l < legs; l++ {
			vm := exec.NewVM(inst)
			if fast {
				vm = exec.NewFastVM(inst)
			}
			vm.SetFuel(hotFuel)
			start := time.Now()
			res, err := vm.Invoke("hot")
			walls = append(walls, time.Since(start))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("bench: hot run (fast=%v): %w", fast, err)
			}
			result, fuel = res[0], hotFuel-vm.Fuel()
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		return result, fuel, walls[len(walls)/2], nil
	}

	offRes, offFuel, offWall, err := run(false)
	if err != nil {
		return nil, err
	}
	onRes, onFuel, onWall, err := run(true)
	if err != nil {
		return nil, err
	}
	return &FastVMResult{
		Instructions: offFuel,
		OffWall:      offWall,
		OnWall:       onWall,
		ResultsMatch: offRes == onRes && offFuel == onFuel,
	}, nil
}

// RenderFastVM prints the experiment summary.
func RenderFastVM(r *FastVMResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fastvm — decoded-IR engine vs tree-walker (%d instructions/run, median of runs)\n", r.Instructions)
	fmt.Fprintf(&sb, "  tree-walker %.1fM instr/s (%.1fms), decoded-IR %.1fM instr/s (%.1fms)\n",
		r.OffIPS()/1e6, float64(r.OffWall.Microseconds())/1e3,
		r.OnIPS()/1e6, float64(r.OnWall.Microseconds())/1e3)
	fmt.Fprintf(&sb, "  result+fuel agreement=%v, speedup %.2fx\n", r.ResultsMatch, r.Speedup())
	if r.Passed() {
		fmt.Fprintf(&sb, "fastvm: PASS — engine agreement, %.2fx throughput (need ≥2x)\n", r.Speedup())
	} else {
		fmt.Fprintf(&sb, "fastvm: FAIL — agreement=%v, speedup %.2fx (need ≥2x)\n", r.ResultsMatch, r.Speedup())
	}
	return sb.String()
}
