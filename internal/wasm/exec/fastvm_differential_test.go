package exec

import (
	"fmt"
	"testing"

	"repro/internal/contractgen"
)

// semOutcome is the full observable behaviour of one engine on one
// generated self-checking module.
type semOutcome struct {
	result  []uint64
	trap    TrapKind
	fuel    int64
	memHash uint64
	notes   []uint64
}

// semRunner executes one generated module on a single linked instance,
// recording the host-call sequence of each run.
type semRunner struct {
	inst  *Instance
	notes []uint64
}

func newSemRunner(t *testing.T, p *contractgen.SemProgram) *semRunner {
	t.Helper()
	r := &semRunner{}
	resolver := Resolver{"sem": HostModule{
		"note": func(vm *VM, args []uint64) ([]uint64, error) {
			r.notes = append(r.notes, args[0])
			return nil, nil
		},
	}}
	inst, err := instantiate(p.Module, resolver)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	r.inst = inst
	return r
}

// run invokes "run" once on a new VM of the chosen engine.
func (r *semRunner) run(t *testing.T, fast bool) semOutcome {
	t.Helper()
	r.notes = nil
	vm := NewVM(r.inst)
	if fast {
		vm = NewFastVM(r.inst)
	}
	res, err := vm.Invoke("run")
	out := semOutcome{result: res, memHash: memHash(r.inst.mem), notes: r.notes}
	if err != nil {
		tr, ok := AsTrap(err)
		if !ok {
			t.Fatalf("non-trap error: %v", err)
		}
		out.trap = tr.Kind
		return out
	}
	out.fuel = DefaultFuel - vm.Fuel()
	return out
}

// diff describes the first observable difference between two outcomes,
// or returns "" when they agree on traps, results, fuel (on success),
// final memory and host-call sequence.
func (a semOutcome) diff(b semOutcome) string {
	if a.trap != b.trap {
		return fmt.Sprintf("trap divergence: %v vs %v", a.trap, b.trap)
	}
	if a.trap == 0 {
		if len(a.result) != 1 || len(b.result) != 1 || a.result[0] != b.result[0] {
			return fmt.Sprintf("result divergence: %v vs %v", a.result, b.result)
		}
		if a.fuel != b.fuel {
			return fmt.Sprintf("fuel divergence: %d vs %d", a.fuel, b.fuel)
		}
	}
	if a.memHash != b.memHash {
		return "final memory divergence"
	}
	if len(a.notes) != len(b.notes) {
		return fmt.Sprintf("host-call sequence length divergence: %d vs %d", len(a.notes), len(b.notes))
	}
	for i := range a.notes {
		if a.notes[i] != b.notes[i] {
			return fmt.Sprintf("host-call divergence at %d: %#x vs %#x", i, a.notes[i], b.notes[i])
		}
	}
	return ""
}

// TestGenerativeDifferentialGate is the fast-engine acceptance gate: 1024
// seeded self-checking programs must agree between the fast and reference
// engines on traps, return values, final memory hashes, host-call
// sequences — and, on success, fuel consumed. The programs self-check, so
// a pass also means both engines computed every folded constant correctly.
// A second leg runs each program twice on one instance with Reset in
// between, on both engines: the second run must be indistinguishable from
// a run on a fresh instance, as the chain's per-apply reuse requires.
func TestGenerativeDifferentialGate(t *testing.T) {
	const seeds = 1024
	compiled := 0
	for seed := int64(0); seed < seeds; seed++ {
		p := contractgen.GenerateSemantics(seed)
		ref := newSemRunner(t, p).run(t, false)
		fast := newSemRunner(t, p).run(t, true)

		if d := ref.diff(fast); d != "" {
			t.Fatalf("seed %d: reference vs fast: %s", seed, d)
		}
		if ref.trap == 0 && ref.result[0] != p.Return {
			t.Fatalf("seed %d: both engines returned %#x, generator predicted %#x", seed, ref.result[0], p.Return)
		}
		for _, engine := range []bool{false, true} {
			r := newSemRunner(t, p)
			r.run(t, engine)
			r.inst.Reset()
			if d := ref.diff(r.run(t, engine)); d != "" {
				t.Fatalf("seed %d: fresh vs reset instance (fast=%v): %s", seed, engine, d)
			}
		}

		// The gate is vacuous if the IR compiler rejects everything.
		prog := compileModule(p.Module)
		if idx, ok := p.Module.ExportedFunc("run"); ok && prog.funcs[idx] != nil {
			compiled++
		}
	}
	if compiled < seeds*9/10 {
		t.Fatalf("only %d/%d generated programs compiled to IR; gate is not exercising the fast engine", compiled, seeds)
	}
}
