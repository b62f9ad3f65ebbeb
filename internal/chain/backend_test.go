package chain

import (
	"strings"
	"testing"

	"repro/internal/eos"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// testnetBackend is a second chain personality built for this test: it
// wraps the EOSIO backend and extends it with one extra intrinsic
// (host_magic), its own bootstrap account, and an extended classification.
// The point of the test is the Backend seam itself — a personality that is
// not EOSIO must plug into NewWithBackend and have its host surface,
// bootstrap, and classification consumed without any caller changes.
type testnetBackend struct {
	Backend // the EOSIO personality, extended below

	magicCalls int
}

const testnetMagic = 424242

func newTestnetBackend() *testnetBackend {
	return &testnetBackend{Backend: EOSIO()}
}

func (b *testnetBackend) Name() string { return "testnet" }

func (b *testnetBackend) Bootstrap(bc *Blockchain) {
	b.Backend.Bootstrap(bc)
	bc.CreateAccount(eos.MustName("testnet.sys"))
}

func (b *testnetBackend) HostEnv(bc *Blockchain) exec.HostModule {
	env := b.Backend.HostEnv(bc)
	env["host_magic"] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		b.magicCalls++
		return []uint64{testnetMagic}, nil
	}
	return env
}

func (b *testnetBackend) Classification() APIClassification {
	base := b.Backend.Classification()
	blockinfo := map[string]bool{"host_magic": true}
	for name := range base.Blockinfo {
		blockinfo[name] = true
	}
	return APIClassification{
		Permission: base.Permission,
		Effect:     base.Effect,
		Blockinfo:  blockinfo,
	}
}

// magicModule links against the testnet-only intrinsic: apply() prints
// host_magic(), so the receipt console witnesses that the backend's env —
// not a hard-coded EOSIO surface — served the call.
func magicModule(t *testing.T) *wasm.Module {
	t.Helper()
	m := &wasm.Module{}
	magicTI := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	printTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64}})
	m.Imports = []wasm.Import{
		{Module: "env", Name: "host_magic", Kind: wasm.ExternalFunc, TypeIndex: magicTI},
		{Module: "env", Name: APIPrintI, Kind: wasm.ExternalFunc, TypeIndex: printTI},
	}
	applyTI := m.AddType(wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64, wasm.I64}})
	m.Funcs = []uint32{applyTI}
	m.Code = []wasm.Code{{Body: []wasm.Instr{
		wasm.Call(0), wasm.Call(1),
		wasm.End(),
	}}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 2}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("magic module invalid: %v", err)
	}
	return m
}

func TestDefaultBackendIsEOSIO(t *testing.T) {
	bc := New()
	if got := bc.Backend().Name(); got != "eosio" {
		t.Fatalf("New() backend = %q, want eosio", got)
	}
	if bc.Account(eos.TokenContract) == nil {
		t.Fatalf("New() did not bootstrap the eosio.token system contract")
	}
}

// TestNewWithBackendPluggability drives a full deploy + transaction on a
// non-EOSIO personality and checks every Backend method was consumed:
// Name labels the chain, Bootstrap ran on construction, HostEnv supplied
// the surface the contract linked and executed against, and
// Classification reflects the extended intrinsic sets.
func TestNewWithBackendPluggability(t *testing.T) {
	b := newTestnetBackend()
	bc := NewWithBackend(b)

	if got := bc.Backend().Name(); got != "testnet" {
		t.Errorf("backend name = %q, want testnet", got)
	}
	if bc.Account(eos.MustName("testnet.sys")) == nil {
		t.Errorf("Bootstrap did not run: testnet.sys account missing")
	}
	if bc.Account(eos.TokenContract) == nil {
		t.Errorf("Bootstrap did not chain to the wrapped personality: eosio.token missing")
	}

	ctr := eos.MustName("magicctr")
	if err := bc.DeployModule(ctr, mustCompile(t, magicModule(t)), nil, nil); err != nil {
		t.Fatalf("deploy against testnet backend: %v", err)
	}
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account: ctr, Name: eos.MustName("go"),
		Authorization: auth(alice),
	}}})
	if rcpt.Err != nil {
		t.Fatalf("apply failed: %v", rcpt.Err)
	}
	if !strings.Contains(rcpt.Console, "424242") {
		t.Errorf("console = %q, want the host_magic value 424242", rcpt.Console)
	}
	if b.magicCalls != 1 {
		t.Errorf("host_magic calls = %d, want 1", b.magicCalls)
	}

	cls := bc.Backend().Classification()
	if !cls.Blockinfo["host_magic"] {
		t.Errorf("classification lost the extended blockinfo intrinsic")
	}
	if !cls.Permission[APIRequireAuth] || !cls.Effect[APIDBStore] {
		t.Errorf("classification lost the wrapped personality's sets")
	}

	// The same module must fail to link on the default personality: the
	// host surface really is backend-supplied, not a global.
	if err := New().DeployModule(eos.MustName("magicctr"), mustCompile(t, magicModule(t)), nil, nil); err == nil {
		t.Errorf("EOSIO chain linked a module importing the testnet-only intrinsic")
	}
}
