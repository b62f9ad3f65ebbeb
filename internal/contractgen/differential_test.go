package contractgen

import (
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// TestDifferentialSymbolicVsConcrete is a differential test between the
// concrete interpreter and Symback's symbolic semantics: random arithmetic
// expressions over the action inputs guard a branch; after a concrete run,
// the symbolic condition Symback reconstructed — evaluated under the
// actual inputs — must agree with the direction the interpreter took.
func TestDifferentialSymbolicVsConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for round := 0; round < 150; round++ {
		exprBody, condPC := randomExprBody(rng)
		mod := exprContract(t, exprBody)
		res, err := instrument.Instrument(mod, instrument.ModeSparse)
		if err != nil {
			t.Fatalf("round %d: instrument: %v", round, err)
		}
		bc := chain.New()
		bc.Collector = trace.NewCollector()
		abi := TransferFieldsABI(eos.ActionTransfer)
		if err := bc.DeployModule(victim, mustCompile(t, res.Module), abi, res.Sites); err != nil {
			t.Fatalf("round %d: deploy: %v", round, err)
		}

		from := rng.Uint64()
		to := rng.Uint64()
		amount := rng.Uint64() >> uint(rng.Intn(40))
		memo := "dd"
		params := []symexec.Param{
			{Type: "name", U64: from},
			{Type: "name", U64: to},
			{Type: "asset", Amount: amount, Symbol: uint64(eos.EOSSymbol)},
			{Type: "string", Str: []byte(memo)},
		}
		signer := eos.Name(from)
		bc.CreateAccount(signer)
		rcpt := bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
			Account:       victim,
			Name:          eos.ActionTransfer,
			Authorization: []chain.PermissionLevel{{Actor: signer, Permission: eos.ActiveAuth}},
			Data: chain.EncodeTransfer(chain.TransferArgs{
				From: eos.Name(from), To: eos.Name(to),
				Quantity: eos.Asset{Amount: int64(amount), Symbol: eos.EOSSymbol},
				Memo:     memo,
			}),
		}}})
		if rcpt.Err != nil {
			t.Fatalf("round %d: invoke: %v", round, rcpt.Err)
		}
		var tr *trace.Trace
		for i := range rcpt.Traces {
			if rcpt.Traces[i].Contract == victim {
				tr = &rcpt.Traces[i]
			}
		}
		if tr == nil {
			t.Fatalf("round %d: no trace", round)
		}

		symRes, err := symexec.Run(symexec.NewReplayer(mod), tr, params, symexec.Options{
			Globals: map[uint32]uint64{0: uint64(victim)},
		})
		if err != nil {
			t.Fatalf("round %d: symexec: %v", round, err)
		}
		model := symbolic.Model{
			symexec.VarName(0):   from,
			symexec.VarName(1):   to,
			symexec.VarAmount(2): amount,
			symexec.VarSymbol(2): uint64(eos.EOSSymbol),
		}
		checked := false
		for i := range symRes.Conds {
			cs := &symRes.Conds[i]
			if cs.PC != condPC || cs.Kind != symexec.CondBranch {
				continue
			}
			checked = true
			got := symbolic.EvalBool(symRes.Ctx.Bool(cs.Cond), model)
			if got != cs.Taken {
				t.Fatalf("round %d: symbolic eval %v != concrete direction %v\nexpr cond: %s\nfrom=%#x to=%#x amount=%#x",
					round, got, cs.Taken, cs.Cond, from, to, amount)
			}
		}
		if !checked {
			t.Fatalf("round %d: guarded branch at pc %d not in replay", round, condPC)
		}
	}
}

// randomExprBody emits an action body computing a random i64 expression
// over (from, to, amount) and branching on `expr < K`. It returns the body
// and the pc of the `if`.
func randomExprBody(rng *rand.Rand) ([]wasm.Instr, int) {
	var body []wasm.Instr
	depth := 0
	pushLeaf := func() {
		switch rng.Intn(4) {
		case 0:
			body = append(body, wasm.LocalGet(1)) // from
		case 1:
			body = append(body, wasm.LocalGet(2)) // to
		case 2:
			body = append(body, wasm.LocalGet(3), wasm.Load(wasm.OpI64Load, 0)) // amount
		default:
			body = append(body, wasm.I64Const(int64(rng.Uint64())))
		}
		depth++
	}
	binOps := []wasm.Opcode{
		wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64And,
		wasm.OpI64Or, wasm.OpI64Xor, wasm.OpI64Shl, wasm.OpI64ShrU,
		wasm.OpI64ShrS, wasm.OpI64Rotl, wasm.OpI64Rotr, wasm.OpI64Popcnt,
	}
	emitOp := func() {
		op := binOps[rng.Intn(len(binOps))]
		if op == wasm.OpI64Popcnt {
			body = append(body, wasm.Op0(op)) // unary
			return
		}
		body = append(body, wasm.Op0(op))
		depth--
	}
	steps := 2 + rng.Intn(8)
	for i := 0; i < steps; i++ {
		if depth >= 2 && rng.Intn(2) == 0 {
			emitOp()
		} else {
			pushLeaf()
		}
	}
	for depth > 1 {
		emitOp()
	}
	// Occasionally detour through the 32-bit domain: wrap, mix with a
	// constant, extend back — exercising the i32 rows of Table 3 on both
	// the interpreter and Symback.
	if rng.Intn(2) == 0 {
		i32ops := []wasm.Opcode{
			wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32And,
			wasm.OpI32Or, wasm.OpI32Xor, wasm.OpI32Shl, wasm.OpI32ShrU,
			wasm.OpI32ShrS, wasm.OpI32Rotl, wasm.OpI32Popcnt,
		}
		body = append(body, wasm.Op0(wasm.OpI32WrapI64))
		op := i32ops[rng.Intn(len(i32ops))]
		if op != wasm.OpI32Popcnt {
			body = append(body, wasm.I32Const(int32(rng.Uint32())))
		}
		body = append(body, wasm.Op0(op))
		if rng.Intn(2) == 0 {
			body = append(body, wasm.Op0(wasm.OpI64ExtendI32U))
		} else {
			body = append(body, wasm.Op0(wasm.OpI64ExtendI32S))
		}
	}
	// Occasionally route the value through select and a local.tee to cover
	// those replay paths (the action signature leaves locals 5+ free via
	// the extra local declared in exprContract).
	if rng.Intn(3) == 0 {
		body = append(body, wasm.LocalTee(5), wasm.LocalGet(5)) // dup via tee
		body = append(body,
			wasm.I64Const(int64(rng.Uint64())),
			wasm.LocalGet(1), wasm.I64Const(int64(rng.Uint64())), wasm.Op0(wasm.OpI64LtU),
			wasm.Op0(wasm.OpSelect),
			wasm.Op0(wasm.OpI64Xor),
		)
	}
	// Compare against a constant with a random predicate.
	cmps := []wasm.Opcode{
		wasm.OpI64LtU, wasm.OpI64LtS, wasm.OpI64GtU, wasm.OpI64GtS,
		wasm.OpI64LeU, wasm.OpI64LeS, wasm.OpI64GeU, wasm.OpI64GeS,
	}
	body = append(body, wasm.I64Const(int64(rng.Uint64())), wasm.Op0(cmps[rng.Intn(len(cmps))]))
	condPC := len(body)
	body = append(body, wasm.If(), wasm.Instr{Op: wasm.OpNop}, wasm.End())
	return body, condPC
}

// exprContract wraps the body in a minimal dispatcher-driven contract.
func exprContract(t *testing.T, actionBody []wasm.Instr) *wasm.Module {
	t.Helper()
	b := newModBuilder()
	g := &gen{b: b, spec: Spec{Class: ClassFakeEOS, Vulnerable: true}}
	fn := b.addFunc("expr", b.actionSig, []wasm.LocalDecl{{Count: 1, Type: wasm.I64}}, actionBody)
	_ = fn
	b.setActionTable([]uint32{fn})
	apply := b.addFunc("apply", b.m.AddType(ft(p(wasm.I64, wasm.I64, wasm.I64), nil)), nil,
		g.applyBody(map[eos.Name]uint32{eos.ActionTransfer: 0}))
	b.export(apply)
	if err := wasm.Validate(b.m); err != nil {
		t.Fatalf("expr contract invalid: %v", err)
	}
	return b.m
}
