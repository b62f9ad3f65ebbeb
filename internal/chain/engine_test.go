package chain

import (
	"testing"

	"repro/internal/eos"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// probeBackend is the EOSIO personality plus one intrinsic, engine_probe,
// that records which engine the calling VM dispatches through.
type probeBackend struct {
	Backend
	fast []bool
}

func (b *probeBackend) HostEnv(bc *Blockchain) exec.HostModule {
	env := b.Backend.HostEnv(bc)
	env["engine_probe"] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		b.fast = append(b.fast, vm.Fast())
		return nil, nil
	}
	return env
}

// TestApplyRunsDecodedIR: every Wasm apply executes on the decoded-IR
// engine, the instruction stream absint reasons about. Both engines
// produce identical traces and digests, so only this probe (or throughput)
// would notice applyWasm drifting back to the tree-walker.
func TestApplyRunsDecodedIR(t *testing.T) {
	m := &wasm.Module{}
	m.Imports = []wasm.Import{{Module: "env", Name: "engine_probe", Kind: wasm.ExternalFunc, TypeIndex: m.AddType(wasm.FuncType{})}}
	m.Funcs = []uint32{m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64, wasm.I64}})}
	m.Code = []wasm.Code{{Body: []wasm.Instr{wasm.Call(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 1}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("probe module invalid: %v", err)
	}

	b := &probeBackend{Backend: EOSIO()}
	bc := NewWithBackend(b)
	ctr := eos.MustName("probe")
	if err := bc.DeployModule(ctr, mustCompile(t, m), nil, nil); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	for tx := 0; tx < 2; tx++ {
		rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
			Account: ctr, Name: eos.MustName("go"), Authorization: auth(alice),
		}}})
		if rcpt.Err != nil {
			t.Fatalf("tx %d: %v", tx, rcpt.Err)
		}
	}
	if len(b.fast) != 2 {
		t.Fatalf("engine_probe ran %d times, want 2", len(b.fast))
	}
	for i, fast := range b.fast {
		if !fast {
			t.Errorf("apply %d ran on the tree-walker, want the decoded-IR engine", i)
		}
	}
}
