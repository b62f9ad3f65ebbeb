package symexec_test

import (
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

var (
	victim   = eos.MustName("victim")
	attacker = eos.MustName("attacker")
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

// harness deploys an instrumented contract and provides invocation and
// replay plumbing.
type harness struct {
	t  *testing.T
	bc *chain.Blockchain
	c  *contractgen.Contract
}

func newHarness(t *testing.T, spec contractgen.Spec) *harness {
	t.Helper()
	c, err := contractgen.Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res, err := instrument.Instrument(c.Module, instrument.ModeSparse)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	bc := chain.New()
	bc.Collector = trace.NewCollector()
	if err := bc.DeployModule(victim, mustCompile(t, res.Module), c.ABI, res.Sites); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	bc.CreateAccount(attacker)
	if err := bc.Issue(eos.TokenContract, victim, eos.MustAsset("10000.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	return &harness{t: t, bc: bc, c: c}
}

// params describes the transfer-shaped action arguments as a seed.
func seedParams(from, to eos.Name, amount int64, memo string) []symexec.Param {
	return []symexec.Param{
		{Type: "name", U64: uint64(from)},
		{Type: "name", U64: uint64(to)},
		{Type: "asset", Amount: uint64(amount), Symbol: uint64(eos.EOSSymbol)},
		{Type: "string", Str: []byte(memo)},
	}
}

// invoke pushes an action built from params and returns the victim's trace.
func (h *harness) invoke(action eos.Name, params []symexec.Param) (*trace.Trace, *chain.Receipt) {
	h.t.Helper()
	data := chain.EncodeTransfer(chain.TransferArgs{
		From:     eos.Name(params[0].U64),
		To:       eos.Name(params[1].U64),
		Quantity: eos.Asset{Amount: int64(params[2].Amount), Symbol: eos.Symbol(params[2].Symbol)},
		Memo:     string(params[3].Str),
	})
	rcpt := h.bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
		Account:       victim,
		Name:          action,
		Authorization: []chain.PermissionLevel{{Actor: eos.Name(params[0].U64), Permission: eos.ActiveAuth}},
		Data:          data,
	}}})
	for i := range rcpt.Traces {
		if rcpt.Traces[i].Contract == victim {
			return &rcpt.Traces[i], rcpt
		}
	}
	return nil, rcpt
}

func (h *harness) replay(tr *trace.Trace, params []symexec.Param) *symexec.Result {
	h.t.Helper()
	if tr == nil {
		h.t.Fatal("no trace to replay")
	}
	res, err := symexec.Run(symexec.NewReplayer(h.c.Module), tr, params, symexec.Options{
		Globals: map[uint32]uint64{0: uint64(victim)},
	})
	if err != nil {
		h.t.Fatalf("symexec.Run: %v", err)
	}
	return res
}

// TestReplayRecordsConditionals replays a reveal execution and checks that
// the assert and branch conditions were captured symbolically.
func TestReplayRecordsConditionals(t *testing.T) {
	lucky := eos.MustName("luckyone")
	h := newHarness(t, contractgen.Spec{
		Class:      contractgen.ClassRollback,
		Vulnerable: true,
		Branches:   []contractgen.BranchCheck{{Field: "from", Value: uint64(lucky)}},
		Seed:       1,
	})
	h.bc.CreateAccount(lucky)
	params := seedParams(attacker, victim, 100000, "m")
	tr, rcpt := h.invoke(contractgen.ActionReveal, params)
	if rcpt.Err != nil {
		t.Fatalf("invoke: %v", rcpt.Err)
	}
	res := h.replay(tr, params)
	if len(res.Conds) == 0 {
		t.Fatal("no conditional states recorded")
	}
	var asserts, branches int
	for _, cs := range res.Conds {
		switch cs.Kind {
		case symexec.CondAssert:
			asserts++
		case symexec.CondBranch:
			branches++
		}
	}
	if asserts == 0 {
		t.Error("no assert conditionals (quantity floor missing)")
	}
	if branches == 0 {
		t.Error("no branch conditionals (from == lucky check missing)")
	}
}

// TestConcolicLoopSolvesBranch is the end-to-end §3.4 check: execute with a
// wrong seed, flip the unexplored branch, solve, and verify the adaptive
// seed actually reaches the hidden template on re-execution.
func TestConcolicLoopSolvesBranch(t *testing.T) {
	lucky := eos.MustName("luckyone")
	h := newHarness(t, contractgen.Spec{
		Class:      contractgen.ClassRollback,
		Vulnerable: true,
		Branches:   []contractgen.BranchCheck{{Field: "from", Value: uint64(lucky)}},
		Seed:       2,
	})
	h.bc.CreateAccount(lucky)

	params := seedParams(attacker, victim, 100000, "m")
	tr, rcpt := h.invoke(contractgen.ActionReveal, params)
	if rcpt.Err != nil {
		t.Fatalf("invoke: %v", rcpt.Err)
	}
	if len(rcpt.InlineSent) != 0 {
		t.Fatal("template fired with the wrong seed")
	}

	res := h.replay(tr, params)
	queries := symexec.FlipQueries(res)
	if len(queries) == 0 {
		t.Fatal("no flip queries generated")
	}

	solver := &symbolic.Solver{}
	reached := false
	for _, q := range queries {
		model, r := solver.Solve(q.Constraints)
		if r != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, model)
		// The mutated `from` must be an account for auth purposes.
		h.bc.CreateAccount(eos.Name(mutated[0].U64))
		// The template's payout condition is block-state dependent (the
		// tapos lottery), so step a few blocks.
		for try := 0; try < 10 && !reached; try++ {
			_, rcpt := h.invoke(contractgen.ActionReveal, mutated)
			reached = rcpt.Err == nil && len(rcpt.InlineSent) > 0
		}
		if reached {
			if eos.Name(mutated[0].U64) != lucky {
				t.Errorf("solver found from=%s, want %s", eos.Name(mutated[0].U64), lucky)
			}
			break
		}
	}
	if !reached {
		t.Fatal("no adaptive seed reached the guarded template")
	}
}

// TestConcolicSolvesMemoryConstraint flips a branch over the asset amount,
// which lives behind the §3.4.1 memory model (loaded through the quantity
// pointer).
func TestConcolicSolvesMemoryConstraint(t *testing.T) {
	h := newHarness(t, contractgen.Spec{
		Class:      contractgen.ClassRollback,
		Vulnerable: true,
		Branches:   []contractgen.BranchCheck{{Field: "amount", Value: 424242}},
		Seed:       3,
	})
	params := seedParams(attacker, victim, 100000, "m")
	tr, rcpt := h.invoke(contractgen.ActionReveal, params)
	if rcpt.Err != nil {
		t.Fatalf("invoke: %v", rcpt.Err)
	}
	res := h.replay(tr, params)
	queries := symexec.FlipQueries(res)

	solver := &symbolic.Solver{}
	var solvedAmount uint64
	for _, q := range queries {
		model, r := solver.Solve(q.Constraints)
		if r != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, model)
		if mutated[2].Amount == 424242 {
			solvedAmount = mutated[2].Amount
			break
		}
	}
	if solvedAmount != 424242 {
		t.Fatalf("solver did not recover the amount constant through the memory model")
	}
}

// TestConcolicPenetratesVerification solves the §4.3 unreachable-guarded
// input checks (the "complicated verification" robustness scenario).
func TestConcolicPenetratesVerification(t *testing.T) {
	h := newHarness(t, contractgen.Spec{
		Class:      contractgen.ClassFakeEOS,
		Vulnerable: true,
		Verification: []contractgen.VerCheck{
			{Field: "amount", Value: 7770000},
			{Field: "symbol", Value: uint64(eos.EOSSymbol)},
		},
		Seed: 4,
	})
	params := seedParams(attacker, victim, 100000, "m")
	// Direct fake-EOS invocation of the eosponser (transfer action).
	tr, rcpt := h.invoke(eos.ActionTransfer, params)
	if rcpt.Err == nil {
		t.Fatal("verification should reject the random seed")
	}
	res := h.replay(tr, params)
	if !res.Truncated {
		t.Error("replay of a reverted run should be truncated")
	}
	queries := symexec.FlipQueries(res)
	solver := &symbolic.Solver{}
	passed := false
	for _, q := range queries {
		model, r := solver.Solve(q.Constraints)
		if r != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, model)
		_, rcpt := h.invoke(eos.ActionTransfer, mutated)
		if rcpt.Err == nil {
			passed = true
			if mutated[2].Amount != 7770000 {
				t.Errorf("amount = %d, want 7770000", mutated[2].Amount)
			}
			break
		}
	}
	if !passed {
		t.Fatal("solver did not penetrate the verification")
	}
}

// TestReplayObfuscatedContract replays a popcount-obfuscated execution and
// still solves the branch constants.
func TestReplayObfuscatedContract(t *testing.T) {
	lucky := eos.MustName("luckyone")
	spec := contractgen.Spec{
		Class:      contractgen.ClassRollback,
		Vulnerable: true,
		Branches:   []contractgen.BranchCheck{{Field: "from", Value: uint64(lucky)}},
		Seed:       5,
	}
	c, err := contractgen.Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if _, err := contractgen.Obfuscate(c.Module, contractgen.ObfuscateOptions{
		Popcount:        true,
		OpaqueRecursion: true,
	}); err != nil {
		t.Fatalf("Obfuscate: %v", err)
	}
	res, err := instrument.Instrument(c.Module, instrument.ModeSparse)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	bc := chain.New()
	bc.Collector = trace.NewCollector()
	if err := bc.DeployModule(victim, mustCompile(t, res.Module), c.ABI, res.Sites); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	bc.CreateAccount(attacker)
	bc.CreateAccount(lucky)
	if err := bc.Issue(eos.TokenContract, victim, eos.MustAsset("10000.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	h := &harness{t: t, bc: bc, c: c}

	params := seedParams(attacker, victim, 100000, "m")
	tr, rcpt := h.invoke(contractgen.ActionReveal, params)
	if rcpt.Err != nil {
		t.Fatalf("invoke: %v", rcpt.Err)
	}
	symRes := h.replay(tr, params)
	queries := symexec.FlipQueries(symRes)
	solver := &symbolic.Solver{}
	solved := false
	for _, q := range queries {
		model, r := solver.Solve(q.Constraints)
		if r != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, model)
		if eos.Name(mutated[0].U64) == lucky {
			solved = true
			break
		}
	}
	if !solved {
		t.Fatal("solver did not penetrate the popcount obfuscation")
	}
}

// TestReplayIsPureInParamValues pins what the fuzzer's replay cache rests
// on: a replay depends on the parameters only through their layout (types
// and string lengths). One recorded trace replayed under two parameter sets
// sharing a layout but differing in every value must give the same error,
// the same flip targets and the same constraints.
func TestReplayIsPureInParamValues(t *testing.T) {
	lucky := eos.MustName("luckyone")
	h := newHarness(t, contractgen.Spec{
		Class:      contractgen.ClassFakeEOS,
		Vulnerable: true,
		Branches:   []contractgen.BranchCheck{{Field: "from", Value: uint64(lucky)}},
		Verification: []contractgen.VerCheck{
			{Field: "memo0", Value: 'q'},
			{Field: "symbol", Value: uint64(eos.EOSSymbol)},
			{Field: "amount", Value: 7770000},
		},
		Seed: 4,
	})
	recorded := seedParams(attacker, victim, 7770000, "qz")
	tr, _ := h.invoke(eos.ActionTransfer, recorded)
	other := seedParams(eos.MustName("bob"), lucky, 5, "ab")
	other[2].Symbol = 12345
	if len(other) != len(recorded) || len(other[3].Str) != len(recorded[3].Str) {
		t.Fatal("parameter sets must share a layout")
	}

	type outcome struct {
		err         string
		targets     []symexec.BranchTarget
		constraints []string
		canon       []symbolic.Canon
	}
	replay := func(params []symexec.Param) outcome {
		res, err := symexec.Run(symexec.NewReplayer(h.c.Module), tr, params, symexec.Options{
			Globals: map[uint32]uint64{0: uint64(victim)},
		})
		if err != nil {
			return outcome{err: err.Error()}
		}
		var o outcome
		for _, q := range symexec.FlipQueries(res) {
			o.targets = append(o.targets, q.Target)
			for _, c := range q.Constraints {
				o.constraints = append(o.constraints, c.String())
			}
			// The canonical key covers the whole expression DAG; String
			// elides below depth 12.
			o.canon = append(o.canon, symbolic.Canonicalize(q.Constraints, 0))
		}
		return o
	}
	a, b := replay(recorded), replay(other)
	if a.err != "" {
		t.Fatalf("replay: %s", a.err)
	}
	if len(a.targets) < 4 {
		t.Fatalf("want flip targets for the memo, symbol, amount and from checks, got %v", a.targets)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay depends on parameter values:\n%+v\n%+v", a, b)
	}
}
