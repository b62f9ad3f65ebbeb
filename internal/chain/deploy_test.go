package chain

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// mustCompile compiles m for deployment, failing the test on error.
func mustCompile(t *testing.T, m *wasm.Module) *exec.CompiledModule {
	t.Helper()
	cm, err := exec.Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cm
}

// printiModule is a contract whose apply() prints k: the console tells
// which deployment served an action.
func printiModule(t *testing.T, k int64) *wasm.Module {
	t.Helper()
	m := &wasm.Module{}
	printTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{{Module: "env", Name: APIPrintI, Kind: wasm.ExternalFunc, TypeIndex: printTI}}
	applyTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64, wasm.I64}})
	m.Funcs = []uint32{applyTI}
	m.Code = []wasm.Code{{Body: []wasm.Instr{wasm.I64Const(k), wasm.Call(0), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 1}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("printi module invalid: %v", err)
	}
	return m
}

// TestRedeployRunsNewCode walks one account through every way its code
// can change — a Wasm redeploy, a native deploy, an undeploy and a
// redeploy of a compiled module — and checks each step runs the new code,
// never the instance linked for the previous deployment. A Wasm
// deployment keeps one VM across its applies, and no apply leaves its
// context on it; each change of code replaces or drops that VM.
func TestRedeployRunsNewCode(t *testing.T) {
	bc := New()
	ctr := eos.MustName("swapper")
	push := func() string {
		t.Helper()
		vm := bc.Account(ctr).vm
		rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
			Account: ctr, Name: eos.MustName("go"), Authorization: auth(alice),
		}}})
		if rcpt.Err != nil {
			t.Fatalf("push: %v", rcpt.Err)
		}
		if got := bc.Account(ctr).vm; got != vm {
			t.Fatalf("an apply replaced the account's VM %p with %p", vm, got)
		}
		if vm != nil && vm.Context != nil {
			t.Fatalf("the account's VM kept the apply context %v", vm.Context)
		}
		return rcpt.Console
	}
	vms := map[*exec.VM]bool{}
	requireNewVM := func(step string) {
		t.Helper()
		vm := bc.Account(ctr).vm
		if vm == nil || vms[vm] {
			t.Fatalf("%s: account VM %p, want a new one", step, vm)
		}
		vms[vm] = true
	}
	requireNoVM := func(step string) {
		t.Helper()
		if vm := bc.Account(ctr).vm; vm != nil {
			t.Fatalf("%s: account kept VM %p, want none", step, vm)
		}
	}
	deployWasm := func(k int64) {
		t.Helper()
		bin, err := wasm.Encode(printiModule(t, k))
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := bc.DeployWasm(ctr, bin, nil); err != nil {
			t.Fatalf("DeployWasm: %v", err)
		}
	}

	deployWasm(1)
	requireNewVM("first deployment")
	for i := 0; i < 2; i++ {
		if got := push(); got != "1" {
			t.Fatalf("first deployment, apply %d printed %q, want 1", i, got)
		}
	}
	deployWasm(2)
	requireNewVM("Wasm redeploy")
	if got := push(); got != "2" {
		t.Fatalf("Wasm redeploy printed %q, want 2", got)
	}
	bc.DeployNative(ctr, nativeFunc(func(ctx *Context, code, action eos.Name) error {
		ctx.Print("native")
		return nil
	}), nil)
	requireNoVM("native deploy")
	if got := push(); got != "native" {
		t.Fatalf("native deploy printed %q, want native", got)
	}
	bc.UnDeploy(ctr)
	if got := push(); got != "" {
		t.Fatalf("undeployed account printed %q, want nothing", got)
	}
	if err := bc.DeployModule(ctr, mustCompile(t, printiModule(t, 3)), nil, nil); err != nil {
		t.Fatalf("DeployModule: %v", err)
	}
	requireNewVM("DeployModule after UnDeploy")
	if got := push(); got != "3" {
		t.Fatalf("DeployModule after UnDeploy printed %q, want 3", got)
	}
	bc.UnDeploy(ctr)
	requireNoVM("undeploy")
}

// selfCallModule is a contract that prints its global, memory cell 0, a
// byte of its data segment and its memory size, then dirties all four —
// sets the global, stores over cell 0 and the data segment, grows memory.
// On action "first" it also sends itself the inline action "second", so
// the second apply observes whatever state the first one left behind.
func selfCallModule(t *testing.T, self eos.Name) *wasm.Module {
	t.Helper()
	i32, i64 := wasm.I32, wasm.I64
	packed := PackAction(Action{
		Account:       self,
		Name:          eos.MustName("second"),
		Authorization: auth(self),
	})
	const dataAt = 64
	m := &wasm.Module{}
	printTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{i64}})
	sendTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{i32, i32}})
	m.Imports = []wasm.Import{
		{Module: "env", Name: APIPrintI, Kind: wasm.ExternalFunc, TypeIndex: printTI},
		{Module: "env", Name: APISendInline, Kind: wasm.ExternalFunc, TypeIndex: sendTI},
	}
	applyTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{i64, i64, i64}})
	m.Funcs = []uint32{applyTI}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	m.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: i64, Mutable: true}, Init: []wasm.Instr{wasm.I64Const(5)}}}
	m.Data = []wasm.DataSegment{{Offset: []wasm.Instr{wasm.I32Const(dataAt)}, Data: packed}}
	m.Code = []wasm.Code{{Body: []wasm.Instr{
		wasm.GlobalGet(0), wasm.Call(0),
		wasm.I32Const(0), wasm.Load(wasm.OpI64Load, 0), wasm.Call(0),
		wasm.I32Const(dataAt), wasm.Load(wasm.OpI64Load8U, 0), wasm.Call(0),
		wasm.Op0(wasm.OpMemorySize), wasm.Op0(wasm.OpI64ExtendI32U), wasm.Call(0),
		// if action == "first": send_inline(dataAt, len(packed))
		wasm.LocalGet(2), wasm.I64Const(int64(eos.MustName("first"))), wasm.Op0(wasm.OpI64Eq),
		wasm.If(), wasm.I32Const(dataAt), wasm.I32Const(int32(len(packed))), wasm.Call(1), wasm.End(),
		wasm.I64Const(7), wasm.GlobalSet(0),
		wasm.I32Const(0), wasm.I64Const(7), wasm.Store(wasm.OpI64Store, 0),
		wasm.I32Const(dataAt), wasm.I32Const(0xff), wasm.Store(wasm.OpI32Store8, 0),
		wasm.I32Const(1), wasm.Op0(wasm.OpMemoryGrow), wasm.Drop(),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 2}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("self-call module invalid: %v", err)
	}
	return m
}

// TestSelfInlineSeesFreshState: a contract that sends an inline action to
// itself runs twice in one transaction on the same deployed instance. The
// second apply must start from fresh memory, globals and memory size, not
// from what the first apply left behind — on both engines. With
// fastvm=true apply runs on the decoded IR; with fastvm=false its body
// starts with an if-with-result-without-else, which the IR compiler
// rejects, so apply runs on the tree-walker fallback.
func TestSelfInlineSeesFreshState(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fastvm=%v", fast), func(t *testing.T) {
			self := eos.MustName("selfcall")
			m := selfCallModule(t, self)
			if !fast {
				// The tree-walker pushes nothing on the false path.
				m.Code[0].Body = append([]wasm.Instr{
					wasm.I32Const(0), wasm.IfTyped(wasm.I32), wasm.I32Const(2), wasm.End(),
				}, m.Code[0].Body...)
			}
			if got := exec.IRFor(m).Func(2).OK(); got != fast {
				t.Fatalf("apply compiled to IR: %v, want %v", got, fast)
			}
			bc := New()
			if err := bc.DeployModule(self, mustCompile(t, m), nil, nil); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			for tx := 0; tx < 2; tx++ {
				rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
					Account: self, Name: eos.MustName("first"), Authorization: auth(self),
				}}})
				if rcpt.Err != nil {
					t.Fatalf("tx %d: %v", tx, rcpt.Err)
				}
				if len(rcpt.Executed) != 2 || len(rcpt.InlineSent) != 1 {
					t.Fatalf("tx %d: executed %d applies, sent %d inline; want 2 and 1", tx, len(rcpt.Executed), len(rcpt.InlineSent))
				}
				// global 5, cell 0 empty, first packed byte (the low byte
				// of the account name), one page — on both applies.
				fresh := fmt.Sprintf("50%d1", byte(self))
				if want := fresh + fresh; rcpt.Console != want {
					t.Fatalf("tx %d: console %q, want %q (stale state leaks into the next apply)", tx, rcpt.Console, want)
				}
			}
		})
	}
}

// readDataModule is a contract whose apply() copies its whole action
// payload to address 1024 with read_action_data, and stores nothing.
func readDataModule(t *testing.T) *wasm.Module {
	t.Helper()
	i32, i64 := wasm.I32, wasm.I64
	m := &wasm.Module{}
	m.Imports = []wasm.Import{
		{Module: "env", Name: APIReadActionData, Kind: wasm.ExternalFunc, TypeIndex: m.AddType(wasm.FuncType{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}})},
		{Module: "env", Name: APIActionDataSize, Kind: wasm.ExternalFunc, TypeIndex: m.AddType(wasm.FuncType{Results: []wasm.ValType{i32}})},
	}
	m.Funcs = []uint32{m.AddType(wasm.FuncType{Params: []wasm.ValType{i64, i64, i64}})}
	m.Code = []wasm.Code{{Body: []wasm.Instr{wasm.I32Const(1024), wasm.Call(1), wasm.Call(0), wasm.Drop(), wasm.End()}}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 2}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("read-data module invalid: %v", err)
	}
	return m
}

// TestResetRestoresHostWrites: two applies on one account, a long action
// payload and then a short one. read_action_data writes memory from the
// host side, so Reset must restore those bytes too: after the second
// apply, memory must equal that of a fresh deployment that ran only the
// short payload, with no tail of the long one left behind.
func TestResetRestoresHostWrites(t *testing.T) {
	ctr := eos.MustName("reader")
	memoryAfter := func(payloads ...[]byte) []byte {
		bc := New()
		if err := bc.DeployModule(ctr, mustCompile(t, readDataModule(t)), nil, nil); err != nil {
			t.Fatalf("deploy: %v", err)
		}
		for _, p := range payloads {
			rcpt := bc.PushTransaction(Transaction{Actions: []Action{{Account: ctr, Name: eos.MustName("read"), Data: p}}})
			if rcpt.Err != nil {
				t.Fatalf("apply: %v", rcpt.Err)
			}
		}
		return bc.Account(ctr).vm.Instance().Memory()
	}
	long, short := bytes.Repeat([]byte("long payload "), 8), []byte("short")
	if !bytes.Equal(memoryAfter(long, short), memoryAfter(short)) {
		t.Fatal("memory after a long then a short payload differs from a fresh apply of the short one")
	}
}

// faultGolden is, per job ID of faultPlan, the class and error of the
// first transaction after the fault was armed. The values were recorded
// with a resolver built per apply, which could not miss a fault armed
// after deployment.
var faultGolden = []string{
	"oom-guard|action 0 (go@apitest): wasm trap: host error: [oom-guard] faultinject: injected budget starvation in host API prints_l: faultinject: injected fault (func 0 pc 0)",
	"trap|action 0 (go@apitest): wasm trap: host error: [trap] faultinject: injected error in host API prints_l: faultinject: injected fault (func 0 pc 0)",
	"panic|action 0 (go@apitest): wasm trap: host error: interpreter panic: [panic] faultinject: injected panic in host API tapos_block_num: faultinject: injected fault (func 11 pc 0)",
	"panic|action 0 (go@apitest): wasm trap: host error: interpreter panic: [panic] faultinject: injected panic in host API printi: faultinject: injected fault (func 11 pc 0)",
	"trap|action 0 (go@apitest): wasm trap: host error: [trap] faultinject: injected error in host API printi: faultinject: injected fault (func 1 pc 0)",
	"trap|action 0 (go@apitest): wasm trap: host error: [trap] faultinject: injected error in host API memset: faultinject: injected fault (func 8 pc 0)",
	"panic|action 0 (go@apitest): wasm trap: host error: interpreter panic: [panic] faultinject: injected panic in host API prints_l: faultinject: injected fault (func 11 pc 0)",
	"oom-guard|action 0 (go@apitest): wasm trap: host error: [oom-guard] faultinject: injected budget starvation in host API prints_l: faultinject: injected fault (func 0 pc 0)",
}

// faultPlan faults every job's first attempt with a host-layer kind.
var faultPlan = faultinject.Plan{
	Seed:  17,
	Rate:  1,
	Kinds: []faultinject.Kind{faultinject.KindHostError, faultinject.KindHostPanic, faultinject.KindFuelStarve},
}

// TestFaultArmedAfterDeploy arms the fault injector after the contract is
// deployed and linked, as fuzz.New does. The interposer must consult the
// injector at call time, so each fault lands on the same host call with
// the same classified error as when the resolver was rebuilt per apply.
func TestFaultArmedAfterDeploy(t *testing.T) {
	var got []string
	for job := 0; job < 8; job++ {
		bc := New()
		ctr := eos.MustName("apitest")
		if err := bc.DeployModule(ctr, mustCompile(t, hostAPIModule(t)), nil, nil); err != nil {
			t.Fatalf("deploy: %v", err)
		}
		bc.Faults = faultPlan.For(job, 0)
		act := Action{Account: ctr, Name: eos.MustName("go"), Authorization: auth(alice)}
		rcpt := bc.PushTransaction(Transaction{Actions: []Action{act}})
		if rcpt.Err == nil || !errors.Is(rcpt.Err, faultinject.ErrInjected) {
			t.Fatalf("job %d: fault did not fire: %v", job, rcpt.Err)
		}
		if class := failure.ClassOf(rcpt.Err); class != bc.Faults.Kind().FailureClass() {
			t.Errorf("job %d: class %v, want %v", job, class, bc.Faults.Kind().FailureClass())
		}
		got = append(got, fmt.Sprintf("%v|%v", failure.ClassOf(rcpt.Err), rcpt.Err))
		// The injector fires once: the retried transaction commits.
		if rcpt := bc.PushTransaction(Transaction{Actions: []Action{act}}); rcpt.Err != nil {
			t.Errorf("job %d: transaction after the fault: %v", job, rcpt.Err)
		}
	}
	if strings.Join(got, "\n") != strings.Join(faultGolden, "\n") {
		t.Fatalf("fault outcomes changed:\n%s", strings.Join(got, "\n"))
	}
}
