package exec

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/wasm"
)

// dirtyModule exports "f", which changes every piece of per-instance
// state Reset restores: it stores over its data segment and over zeroed
// memory, sets a mutable global, and grows memory by one page.
func dirtyModule(t *testing.T) *wasm.Module {
	t.Helper()
	i32, i64 := wasm.I32, wasm.I64
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	m.Funcs = []uint32{m.AddType(wasm.FuncType{Results: []wasm.ValType{i32}})}
	m.Code = []wasm.Code{{Body: []wasm.Instr{
		wasm.I32Const(8), wasm.I64Const(-1), wasm.Store(wasm.OpI64Store, 0), // over the data segment
		wasm.I32Const(512), wasm.I32Const(0x5a), wasm.Store(wasm.OpI32Store8, 0),
		wasm.I64Const(99), wasm.GlobalSet(0),
		wasm.I32Const(1), wasm.Op0(wasm.OpMemoryGrow), wasm.Drop(),
		wasm.I32Const(PageSize + 16), wasm.I32Const(7), wasm.Store(wasm.OpI32Store, 0),
		wasm.Op0(wasm.OpMemorySize),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}}
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

// TestResetMatchesFreshInstance: after an invocation that dirties memory,
// globals and memory size, Reset must leave the instance identical to a
// freshly instantiated one, and a second invocation must behave like the
// first — on both engines.
func TestResetMatchesFreshInstance(t *testing.T) {
	m := dirtyModule(t)
	fresh, err := Instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	for _, fast := range []bool{false, true} {
		inst, err := Instantiate(m, nil)
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		newVM := NewVM
		if fast {
			newVM = NewFastVM
		}
		for run := 0; run < 2; run++ {
			res, err := newVM(inst).Invoke("f")
			if err != nil {
				t.Fatalf("fast=%v run %d: %v", fast, run, err)
			}
			if res[0] != 2 || inst.MemSize() != 2*PageSize || inst.globals[0] != 99 {
				t.Fatalf("fast=%v run %d: memory.size=%d MemSize=%d global=%d; the invocation did not dirty the instance",
					fast, run, res[0], inst.MemSize(), inst.globals[0])
			}
			inst.Reset()
			if inst.MemSize() != fresh.MemSize() {
				t.Fatalf("fast=%v run %d: MemSize after Reset %d, fresh %d", fast, run, inst.MemSize(), fresh.MemSize())
			}
			if !bytes.Equal(inst.Memory(), fresh.Memory()) {
				t.Fatalf("fast=%v run %d: memory after Reset differs from a fresh instance", fast, run)
			}
			if !slices.Equal(inst.globals, fresh.globals) {
				t.Fatalf("fast=%v run %d: globals after Reset %v, fresh %v", fast, run, inst.globals, fresh.globals)
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
			inst, err := c.Link(nil)
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
	other, err := Instantiate(m, nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if NewFastVM(other).prog == progs[0] {
		t.Fatal("a separately compiled module reused another module's IR")
	}
}
