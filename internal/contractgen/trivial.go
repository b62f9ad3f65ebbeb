package contractgen

import (
	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/wasm"
)

// Trivial builds the minimal deployable contract: an exported apply that
// immediately returns, one page of memory, no dispatch table, no host
// imports, no actions. It models the boilerplate contracts that dominate a
// wild population — every static candidate flag is provably false for it,
// absint proves every class negative, and a dynamic campaign over it
// reports all classes clean. Each call returns a fresh module.
func Trivial() *Contract {
	mod := &wasm.Module{
		Types:    []wasm.FuncType{{Params: []wasm.ValType{wasm.I64, wasm.I64, wasm.I64}}},
		Funcs:    []uint32{0},
		Memories: []wasm.MemType{{Limits: wasm.Limits{Min: 1}}},
		Exports:  []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 0}},
		Code:     []wasm.Code{{Body: []wasm.Instr{{Op: wasm.OpEnd}}}},
	}
	return &Contract{Module: mod, ABI: &abi.ABI{}, Actions: map[eos.Name]uint32{}}
}
