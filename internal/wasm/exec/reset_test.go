package exec

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/wasm"
)

// dirtyModule exports "f", which changes every piece of per-instance
// state Reset restores: through a host import it writes below every
// store, it stores constants over its data segment and over zeroed
// memory, sets a mutable global, and grows memory by one page. It also
// exports "g", whose one store takes its value from a global, so the fast
// engine runs it as a plain store rather than a fused constant store.
// Each export writes some bytes outside the range of the others' writes,
// so Reset must have seen every write path to restore them.
func dirtyModule(t *testing.T) *wasm.Module {
	t.Helper()
	i32, i64 := wasm.I32, wasm.I64
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	m.Imports = []wasm.Import{{Module: "env", Name: "poke", Kind: wasm.ExternalFunc, TypeIndex: m.AddType(wasm.FuncType{})}}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{i32}})
	m.Funcs = []uint32{ti, ti}
	m.Code = []wasm.Code{{Body: []wasm.Instr{
		// poke: WriteMemory over [0, 6), below every store.
		wasm.Call(0),
		wasm.I32Const(8), wasm.I64Const(-1), wasm.Store(wasm.OpI64Store, 0), // over the data segment
		wasm.I32Const(512), wasm.I32Const(0x5a), wasm.Store(wasm.OpI32Store8, 0),
		wasm.I64Const(99), wasm.GlobalSet(0),
		wasm.I32Const(1), wasm.Op0(wasm.OpMemoryGrow), wasm.Drop(),
		wasm.I32Const(PageSize + 16), wasm.I32Const(7), wasm.Store(wasm.OpI32Store, 0),
		wasm.Op0(wasm.OpMemorySize),
		wasm.End(),
	}}, {Body: []wasm.Instr{
		wasm.I32Const(PageSize - 8), wasm.GlobalGet(0), wasm.Store(wasm.OpI64Store, 0),
		wasm.Op0(wasm.OpMemorySize),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{
		{Name: "f", Kind: wasm.ExternalFunc, Index: 1},
		{Name: "g", Kind: wasm.ExternalFunc, Index: 2},
	}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1, Max: 4, HasMax: true}}}
	m.Globals = []wasm.Global{
		{Type: wasm.GlobalType{Type: i64, Mutable: true}, Init: []wasm.Instr{wasm.I64Const(42)}},
		{Type: wasm.GlobalType{Type: i32}, Init: []wasm.Instr{wasm.I32Const(3)}},
	}
	m.Data = []wasm.DataSegment{{Offset: []wasm.Instr{wasm.I32Const(4)}, Data: []byte("initial data")}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

// dirtyImports resolves dirtyModule's host import, which writes the way
// host functions do: through WriteMemory.
var dirtyImports = Resolver{"env": {"poke": func(vm *VM, _ []uint64) ([]uint64, error) {
	return nil, vm.Instance().WriteMemory(0, []byte("poked!"))
}}}

// TestResetMatchesFreshInstance: after an invocation that dirties memory,
// globals and memory size, Reset must leave the instance identical to a
// freshly instantiated one, and a second invocation must behave like the
// first — on both engines.
func TestResetMatchesFreshInstance(t *testing.T) {
	m := dirtyModule(t)
	fresh, err := instantiate(m, dirtyImports)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	for _, fn := range []string{"f", "g"} {
		for _, fast := range []bool{false, true} {
			inst, err := instantiate(m, dirtyImports)
			if err != nil {
				t.Fatalf("Instantiate: %v", err)
			}
			newVM := NewVM
			if fast {
				newVM = NewFastVM
			}
			for run := 0; run < 2; run++ {
				res, err := newVM(inst).Invoke(fn)
				if err != nil {
					t.Fatalf("%s fast=%v run %d: %v", fn, fast, run, err)
				}
				if fn == "f" && (res[0] != 2 || inst.MemSize() != 2*PageSize || inst.globals[0] != 99 || string(inst.Memory()[:6]) != "poked!") {
					t.Fatalf("%s fast=%v run %d: memory.size=%d MemSize=%d global=%d; the invocation did not dirty the instance",
						fn, fast, run, res[0], inst.MemSize(), inst.globals[0])
				}
				if bytes.Equal(inst.Memory()[:fresh.MemSize()], fresh.Memory()) {
					t.Fatalf("%s fast=%v run %d: the invocation did not write memory", fn, fast, run)
				}
				inst.Reset()
				if inst.MemSize() != fresh.MemSize() {
					t.Fatalf("%s fast=%v run %d: MemSize after Reset %d, fresh %d", fn, fast, run, inst.MemSize(), fresh.MemSize())
				}
				if !bytes.Equal(inst.Memory(), fresh.Memory()) {
					t.Fatalf("%s fast=%v run %d: memory after Reset differs from a fresh instance", fn, fast, run)
				}
				if !slices.Equal(inst.globals, fresh.globals) {
					t.Fatalf("%s fast=%v run %d: globals after Reset %v, fresh %v", fn, fast, run, inst.globals, fresh.globals)
				}
			}
		}
	}
}

// TestFastVMsShareCompiledProgram: fast VMs over instances of one compiled
// module share one IR program, compiled once even when the first fast VMs
// start concurrently, while a separately compiled module gets its own.
func TestFastVMsShareCompiledProgram(t *testing.T) {
	m := dirtyModule(t)
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const workers = 8
	progs := make([]*irProgram, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := c.Link(dirtyImports)
			if err != nil {
				t.Errorf("Link: %v", err)
				return
			}
			vm := NewFastVM(inst)
			if _, err := vm.Invoke("f"); err != nil {
				t.Errorf("Invoke: %v", err)
			}
			progs[i] = vm.prog
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("fast VM %d has program %p, VM 0 has %p: instances of one compiled module must share its IR", i, p, progs[0])
		}
	}
	other, err := instantiate(m, dirtyImports)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if NewFastVM(other).prog == progs[0] {
		t.Fatal("a separately compiled module reused another module's IR")
	}
}
