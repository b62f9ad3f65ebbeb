package instrument

import (
	"testing"

	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// testModule builds a small module with an import, two local functions and
// an indirect call, covering the remapping paths.
func testModule(t *testing.T) *wasm.Module {
	t.Helper()
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	hostTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{{Module: "env", Name: "sink", Kind: wasm.ExternalFunc, TypeIndex: hostTI}}
	binTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	voidTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}})

	// func[1] add(a, b) -> a+b with a conditional and memory traffic
	m.Funcs = append(m.Funcs, binTI)
	m.Code = append(m.Code, wasm.Code{Body: []wasm.Instr{
		// mem[8] = a
		wasm.I32Const(8), wasm.LocalGet(0), wasm.Store(wasm.OpI64Store, 0),
		// if (a == b) mem[8] = a + b
		wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI64Eq),
		wasm.If(),
		wasm.I32Const(8), wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op0(wasm.OpI64Add), wasm.Store(wasm.OpI64Store, 0),
		wasm.End(),
		// return mem[8] + b
		wasm.I32Const(8), wasm.Load(wasm.OpI64Load, 0),
		wasm.LocalGet(1), wasm.Op0(wasm.OpI64Add),
		wasm.End(),
	}})
	// func[2] main(x): sink(add(x, 3)); indirect call of table[0]
	m.Funcs = append(m.Funcs, voidTI)
	m.Code = append(m.Code, wasm.Code{Body: []wasm.Instr{
		wasm.LocalGet(0), wasm.I64Const(3), wasm.Call(1),
		wasm.Call(0), // import
		wasm.LocalGet(0), wasm.LocalGet(0), wasm.I32Const(0), wasm.CallIndirect(binTI),
		wasm.Drop(),
		wasm.End(),
	}})
	m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: 1}}}
	m.Elems = []wasm.ElemSegment{{Offset: []wasm.Instr{wasm.I32Const(0)}, Funcs: []uint32{1}}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	m.Exports = []wasm.Export{{Name: "main", Kind: wasm.ExternalFunc, Index: 2}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return m
}

func TestInstrumentPreservesValidity(t *testing.T) {
	m := testModule(t)
	res, err := Instrument(m, ModeSparse)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if err := wasm.Validate(res.Module); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
	// Original module untouched.
	if len(m.Imports) != 1 {
		t.Error("original module was mutated")
	}
	// Hook imports appended after existing ones.
	if got := res.Module.NumImportedFuncs(); got != 1+int(NumHooks) {
		t.Errorf("imports = %d, want %d", got, 1+int(NumHooks))
	}
	// Exports remapped past the hooks.
	idx, ok := res.Module.ExportedFunc("main")
	if !ok || idx != 2+NumHooks {
		t.Errorf("main remapped to %d, want %d", idx, 2+NumHooks)
	}
	// Round-trips through the binary format (site table included).
	bin, err := wasm.Encode(res.Module)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := wasm.Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sites, err := SitesFromModule(back)
	if err != nil {
		t.Fatalf("SitesFromModule: %v", err)
	}
	if sites == nil || len(sites.Sites) != len(res.Sites.Sites) {
		t.Fatalf("site table lost in round trip")
	}
}

// TestInstrumentedExecutionMatches runs original and instrumented modules
// and checks the behaviour is identical (hooks are observationally pure).
func TestInstrumentedExecutionMatches(t *testing.T) {
	m := testModule(t)
	res, err := Instrument(m, ModeSparse)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}

	var sunk []uint64
	hostResolver := exec.Resolver{"env": exec.HostModule{
		"sink": func(vm *exec.VM, args []uint64) ([]uint64, error) {
			sunk = append(sunk, args[0])
			return nil, nil
		},
	}}
	noopHooks := exec.HostModule{}
	for _, h := range []string{
		HookLogSite, HookLogCond, HookLogTable, HookLogMem, HookLogCmp,
		HookLogCall, HookLogCallI, HookLogRetV, HookLogRetI, HookLogRetL,
		HookLogRetF, HookLogRetD, HookLogBegin, HookLogEnd,
		HookLogParmI, HookLogParmL, HookLogParmF, HookLogParmD,
	} {
		noopHooks[h] = func(vm *exec.VM, args []uint64) ([]uint64, error) { return nil, nil }
	}

	run := func(mod *wasm.Module, withHooks bool) []uint64 {
		sunk = nil
		r := exec.Resolver{"env": hostResolver["env"]}
		if withHooks {
			r[HookModule] = noopHooks
		}
		c, err := exec.Compile(mod)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		inst, err := c.Link(r)
		if err != nil {
			t.Fatalf("link: %v", err)
		}
		if _, err := exec.NewVM(inst).Invoke("main", 7); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		return append([]uint64(nil), sunk...)
	}

	orig := run(m, false)
	instr := run(res.Module, true)
	if len(orig) != len(instr) || orig[0] != instr[0] {
		t.Errorf("instrumented behaviour differs: %v vs %v", orig, instr)
	}
	if orig[0] != 10 { // add(7, 3)
		t.Errorf("add(7,3) = %d", orig[0])
	}
}

// TestHookEventCapture checks that hooks fire with the expected original
// coordinates and operand values.
func TestHookEventCapture(t *testing.T) {
	m := testModule(t)
	res, err := Instrument(m, ModeSparse)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}

	type call struct {
		hook string
		args []uint64
	}
	var calls []call
	record := func(name string) exec.HostFunc {
		return func(vm *exec.VM, args []uint64) ([]uint64, error) {
			calls = append(calls, call{hook: name, args: append([]uint64(nil), args...)})
			return nil, nil
		}
	}
	hooks := exec.HostModule{}
	for _, h := range []string{
		HookLogSite, HookLogCond, HookLogTable, HookLogMem, HookLogCmp,
		HookLogCall, HookLogCallI, HookLogRetV, HookLogRetI, HookLogRetL,
		HookLogRetF, HookLogRetD, HookLogBegin, HookLogEnd,
		HookLogParmI, HookLogParmL, HookLogParmF, HookLogParmD,
	} {
		hooks[h] = record(h)
	}
	c, err := exec.Compile(res.Module)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inst, err := c.Link(exec.Resolver{
		"env":      exec.HostModule{"sink": func(vm *exec.VM, args []uint64) ([]uint64, error) { return nil, nil }},
		HookModule: hooks,
	})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	if _, err := exec.NewVM(inst).Invoke("main", 5); err != nil {
		t.Fatalf("invoke: %v", err)
	}

	byHook := map[string][]call{}
	for _, c := range calls {
		byHook[c.hook] = append(byHook[c.hook], c)
	}
	// main begins, then add begins (direct), then add again (indirect).
	begins := byHook[HookLogBegin]
	if len(begins) != 3 {
		t.Fatalf("begin events = %d, want 3", len(begins))
	}
	if begins[0].args[0] != 2 || begins[1].args[0] != 1 || begins[2].args[0] != 1 {
		t.Errorf("begin order: %v", begins)
	}
	// Parameter duplication: main(5) then add(5,3) then add(5,5).
	parms := byHook[HookLogParmL]
	if len(parms) != 5 {
		t.Fatalf("param events = %d, want 5", len(parms))
	}
	if parms[0].args[1] != 5 || parms[1].args[1] != 5 || parms[2].args[1] != 3 {
		t.Errorf("param values: %v", parms)
	}
	// The i64.eq comparison duplicates both operands.
	cmps := byHook[HookLogCmp]
	if len(cmps) != 2 {
		t.Fatalf("cmp events = %d, want 2", len(cmps))
	}
	if cmps[0].args[1] != 5 || cmps[0].args[2] != 3 {
		t.Errorf("cmp operands: %v", cmps[0].args)
	}
	// Conditionals: one if per add invocation, false then true.
	conds := byHook[HookLogCond]
	if len(conds) != 2 || conds[0].args[1] != 0 || conds[1].args[1] != 1 {
		t.Errorf("cond events: %v", conds)
	}
	// Memory: add(5,3) does store+load; add(5,5) does store+store+load.
	if len(byHook[HookLogMem]) != 5 {
		t.Errorf("mem events = %d, want 5", len(byHook[HookLogMem]))
	}
	// Direct call to add (orig index 1) and to the import (orig index 0).
	callsDirect := byHook[HookLogCall]
	if len(callsDirect) != 2 || callsDirect[0].args[1] != 1 || callsDirect[1].args[1] != 0 {
		t.Errorf("direct call events: %v", callsDirect)
	}
	// Indirect call logs the table index.
	if ci := byHook[HookLogCallI]; len(ci) != 1 || ci[0].args[1] != 0 {
		t.Errorf("indirect call events: %v", byHook[HookLogCallI])
	}
	// Returns: i64 results from both adds, void from the import.
	if len(byHook[HookLogRetL]) != 2 || len(byHook[HookLogRetV]) != 1 {
		t.Errorf("ret events: L=%d V=%d", len(byHook[HookLogRetL]), len(byHook[HookLogRetV]))
	}
	if byHook[HookLogRetL][0].args[1] != 8 { // add(5,3)
		t.Errorf("first return = %d, want 8", byHook[HookLogRetL][0].args[1])
	}
}

func TestSiteTableRoundTrip(t *testing.T) {
	st := &SiteTable{
		NumImports: 3, NumHooks: NumHooks, Mode: ModeSparse,
		Sites: []Site{{Func: 4, PC: 17, Op: wasm.OpBrIf}, {Func: 5, PC: 0, Op: wasm.OpI64Load}},
	}
	back, err := DecodeSiteTable(EncodeSiteTable(st))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumImports != 3 || back.NumHooks != NumHooks || len(back.Sites) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Sites[0] != st.Sites[0] || back.Sites[1] != st.Sites[1] {
		t.Errorf("sites mismatch")
	}
}

func TestOrigFuncMapping(t *testing.T) {
	st := &SiteTable{NumImports: 5, NumHooks: NumHooks}
	if orig, ok := st.OrigFunc(3); !ok || orig != 3 {
		t.Errorf("import mapping broken: %d %v", orig, ok)
	}
	if _, ok := st.OrigFunc(5 + NumHooks/2); ok {
		t.Error("hook import should have no original")
	}
	if orig, ok := st.OrigFunc(5 + NumHooks); !ok || orig != 5 {
		t.Errorf("local mapping broken: %d %v", orig, ok)
	}
	if got := st.InstrumentedFunc(5); got != 5+NumHooks {
		t.Errorf("InstrumentedFunc(5) = %d", got)
	}
	if got := st.InstrumentedFunc(2); got != 2 {
		t.Errorf("InstrumentedFunc(2) = %d", got)
	}
}

func TestInstrumentRejectsDoubleInstrumentation(t *testing.T) {
	m := testModule(t)
	res, err := Instrument(m, ModeSparse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instrument(res.Module, ModeSparse); err == nil {
		t.Error("double instrumentation should fail")
	}
}

func TestModeFullAddsSiteEvents(t *testing.T) {
	m := testModule(t)
	sparse, err := Instrument(m, ModeSparse)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Instrument(m, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Sites.Sites) <= len(sparse.Sites.Sites) {
		t.Errorf("full mode sites %d <= sparse %d", len(full.Sites.Sites), len(sparse.Sites.Sites))
	}
}
