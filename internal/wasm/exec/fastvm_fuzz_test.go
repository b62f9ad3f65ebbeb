package exec

import (
	"testing"

	"repro/internal/contractgen"
	"repro/internal/wasm"
)

// hostCall records one imported-function invocation for sequence comparison.
type hostCall struct {
	name string
	args string
}

// fuzzResolver builds a resolver that satisfies every function import of m
// with a recorder returning zeroes of the declared result arity, so that
// mutated modules with arbitrary import shapes still instantiate and the
// host-call sequence stays comparable across engines.
func fuzzResolver(m *wasm.Module, log *[]hostCall) Resolver {
	r := Resolver{}
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternalFunc {
			continue
		}
		if int(imp.TypeIndex) >= len(m.Types) {
			continue
		}
		nResults := len(m.Types[imp.TypeIndex].Results)
		hm, ok := r[imp.Module]
		if !ok {
			hm = HostModule{}
			r[imp.Module] = hm
		}
		name := imp.Module + "." + imp.Name
		hm[imp.Name] = func(vm *VM, args []uint64) ([]uint64, error) {
			buf := make([]byte, 0, 8*len(args))
			for _, a := range args {
				for i := 0; i < 8; i++ {
					buf = append(buf, byte(a>>(8*i)))
				}
			}
			*log = append(*log, hostCall{name: name, args: string(buf)})
			return make([]uint64, nResults), nil
		}
	}
	return r
}

const fuzzFuel = 1 << 20

// fuzzRun invokes every zero-parameter exported function of m in export
// order on one engine and returns the aggregate observable behaviour.
func fuzzRun(m *wasm.Module, fast bool) (outcomes []semOutcome, calls []hostCall, ok bool) {
	inst, err := instantiate(m, fuzzResolver(m, &calls))
	if err != nil {
		return nil, nil, false
	}
	for _, exp := range m.Exports {
		if exp.Kind != wasm.ExternalFunc || int(exp.Index) >= len(inst.funcs) {
			continue
		}
		if len(inst.funcs[exp.Index].typ.Params) != 0 {
			continue
		}
		var vm *VM
		if fast {
			vm = NewFastVM(inst)
		} else {
			vm = NewVM(inst)
		}
		vm.SetFuel(fuzzFuel)
		res, err := vm.InvokeIndex(exp.Index)
		o := semOutcome{result: res, memHash: memHash(inst.mem)}
		if err != nil {
			if tr, isTrap := AsTrap(err); isTrap {
				o.trap = tr.Kind
			} else {
				o.trap = TrapHostError
			}
		} else {
			o.fuel = fuzzFuel - vm.Fuel()
		}
		outcomes = append(outcomes, o)
	}
	return outcomes, calls, true
}

// FuzzFastVM feeds mutated module binaries through both engines and
// requires identical traps, results, final memory hashes, host-call
// sequences, and (on success) fuel. Seeds come from the semantics
// generator, so mutations explore the neighbourhood of valid,
// behaviour-rich programs rather than mostly failing to decode.
func FuzzFastVM(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		if bin, err := wasm.Encode(contractgen.GenerateSemantics(seed).Module); err == nil {
			f.Add(bin)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wasm.Decode(data)
		if err != nil {
			return
		}
		if err := wasm.Validate(m); err != nil {
			return
		}
		ref, refCalls, ok := fuzzRun(m, false)
		if !ok {
			return
		}
		fast, fastCalls, _ := fuzzRun(m, true)
		if len(ref) != len(fast) {
			t.Fatalf("invocation count divergence: %d vs %d", len(ref), len(fast))
		}
		for i := range ref {
			if ref[i].trap != fast[i].trap {
				t.Fatalf("export %d: trap divergence: reference %v, fast %v", i, ref[i].trap, fast[i].trap)
			}
			if ref[i].memHash != fast[i].memHash {
				t.Fatalf("export %d: memory divergence", i)
			}
			if ref[i].trap != 0 {
				continue
			}
			if len(ref[i].result) != len(fast[i].result) {
				t.Fatalf("export %d: result arity divergence", i)
			}
			for j := range ref[i].result {
				if ref[i].result[j] != fast[i].result[j] {
					t.Fatalf("export %d: result divergence: %v vs %v", i, ref[i].result, fast[i].result)
				}
			}
			if ref[i].fuel != fast[i].fuel {
				t.Fatalf("export %d: fuel divergence: %d vs %d", i, ref[i].fuel, fast[i].fuel)
			}
		}
		if len(refCalls) != len(fastCalls) {
			t.Fatalf("host-call sequence length divergence: %d vs %d", len(refCalls), len(fastCalls))
		}
		for i := range refCalls {
			if refCalls[i] != fastCalls[i] {
				t.Fatalf("host-call divergence at %d: %v vs %v", i, refCalls[i], fastCalls[i])
			}
		}
	})
}
