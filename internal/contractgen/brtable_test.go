package contractgen

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// brTableContract dispatches on (from & 3) through a br_table; arm 2
// records a bet row (the observable event).
func brTableContract(t *testing.T) *wasm.Module {
	t.Helper()
	b := newModBuilder()
	g := &gen{b: b, spec: Spec{Class: ClassFakeEOS, Vulnerable: true}}
	body := []wasm.Instr{
		wasm.Block(), // $out
		wasm.Block(), // $arm2
		wasm.Block(), // $arm1
		wasm.Block(), // $arm0
		wasm.LocalGet(1), wasm.I64Const(3), wasm.Op0(wasm.OpI64And),
		wasm.Op0(wasm.OpI32WrapI64),
		{Op: wasm.OpBrTable, Table: []uint32{0, 1, 2}, A: 3},
		wasm.End(), // arm0: nothing
		wasm.Br(2),
		wasm.End(), // arm1: nothing
		wasm.Br(1),
		wasm.End(), // arm2: record the bet
	}
	body = append(body, g.storeRow(TableBets)...)
	body = append(body, wasm.End()) // $out
	fn := b.addFunc("switchy", b.actionSig, nil, body)
	b.setActionTable([]uint32{fn})
	apply := b.addFunc("apply", b.m.AddType(ft(p(wasm.I64, wasm.I64, wasm.I64), nil)), nil,
		g.applyBody(map[eos.Name]uint32{eos.ActionTransfer: 0}))
	b.export(apply)
	if err := wasm.Validate(b.m); err != nil {
		t.Fatalf("br_table contract invalid: %v", err)
	}
	return b.m
}

// TestBrTableFlipSteersArms: the §3.4.4 flip of a br_table conditional
// produces seeds reaching every arm, including the bet-recording one.
func TestBrTableFlipSteersArms(t *testing.T) {
	mod := brTableContract(t)
	res, err := instrument.Instrument(mod, instrument.ModeSparse)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	bc := chain.New()
	bc.Collector = trace.NewCollector()
	if err := bc.DeployModule(victim, mustCompile(t, res.Module), TransferFieldsABI(eos.ActionTransfer), res.Sites); err != nil {
		t.Fatalf("deploy: %v", err)
	}

	invoke := func(from uint64) (*trace.Trace, *chain.Receipt) {
		signer := eos.Name(from)
		bc.CreateAccount(signer)
		rcpt := bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
			Account:       victim,
			Name:          eos.ActionTransfer,
			Authorization: []chain.PermissionLevel{{Actor: signer, Permission: eos.ActiveAuth}},
			Data: chain.EncodeTransfer(chain.TransferArgs{
				From: eos.Name(from), To: victim,
				Quantity: eos.EOS(10000), Memo: "x",
			}),
		}}})
		for i := range rcpt.Traces {
			if rcpt.Traces[i].Contract == victim {
				return &rcpt.Traces[i], rcpt
			}
		}
		return nil, rcpt
	}

	// from & 3 == 0: the default arm (depth 3) — no bet recorded.
	from0 := uint64(eos.MustName("aaaaaaaaaaab")) &^ 3
	tr, rcpt := invoke(from0)
	if rcpt.Err != nil {
		t.Fatalf("invoke: %v", rcpt.Err)
	}
	if bc.DB().Rows(victim, victim, TableBets) != 0 {
		t.Fatal("arm 2 reached with the initial seed")
	}

	params := []symexec.Param{
		{Type: "name", U64: from0},
		{Type: "name", U64: uint64(victim)},
		{Type: "asset", Amount: 10000, Symbol: uint64(eos.EOSSymbol)},
		{Type: "string", Str: []byte("x")},
	}
	symRes, err := symexec.Run(symexec.NewReplayer(mod), tr, params, symexec.Options{
		Globals: map[uint32]uint64{0: uint64(victim)},
	})
	if err != nil {
		t.Fatalf("symexec: %v", err)
	}
	var brTableConds int
	for _, cs := range symRes.Conds {
		if cs.Kind == symexec.CondBrTable {
			brTableConds++
			if cs.NumTargets != 4 {
				t.Errorf("NumTargets = %d, want 4", cs.NumTargets)
			}
		}
	}
	if brTableConds != 1 {
		t.Fatalf("br_table conditionals = %d, want 1", brTableConds)
	}

	// Flip queries cover the three other arms; solving each yields a seed
	// selecting that arm.
	queries := symexec.FlipQueries(symRes)
	solver := &symbolic.Solver{}
	armsReached := map[uint64]bool{}
	for _, q := range queries {
		model, r := solver.Solve(q.Constraints)
		if r != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, model)
		armsReached[mutated[0].U64&3] = true
		if mutated[0].U64&3 == 2 {
			_, rcpt := invoke(mutated[0].U64)
			if rcpt.Err != nil {
				t.Fatalf("arm-2 seed: %v", rcpt.Err)
			}
			if bc.DB().Rows(victim, victim, TableBets) == 0 {
				t.Error("arm-2 seed did not record the bet")
			}
		}
	}
	for _, want := range []uint64{1, 2, 3} {
		if !armsReached[want] {
			t.Errorf("no adaptive seed for arm %d (reached: %v)", want, armsReached)
		}
	}
}
