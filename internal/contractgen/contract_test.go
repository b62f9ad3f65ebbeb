package contractgen

import (
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/instrument"
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

func generate(t *testing.T, spec Spec) *Contract {
	t.Helper()
	c, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", spec, err)
	}
	return c
}

// TestGenerateAllClassesRoundTrip encodes, decodes and re-validates every
// class/vulnerability combination.
func TestGenerateAllClassesRoundTrip(t *testing.T) {
	for _, class := range Classes {
		for _, vul := range []bool{true, false} {
			c := generate(t, Spec{Class: class, Vulnerable: vul, Seed: 1})
			bin, err := wasm.Encode(c.Module)
			if err != nil {
				t.Fatalf("%s vul=%v: encode: %v", class, vul, err)
			}
			m2, err := wasm.Decode(bin)
			if err != nil {
				t.Fatalf("%s vul=%v: decode: %v", class, vul, err)
			}
			if err := wasm.Validate(m2); err != nil {
				t.Fatalf("%s vul=%v: validate: %v", class, vul, err)
			}
			if len(m2.Code) != len(c.Module.Code) {
				t.Errorf("%s: code count mismatch after round trip", class)
			}
		}
	}
}

// deployInstrumented instruments a generated contract and deploys it.
func deployInstrumented(t *testing.T, bc *chain.Blockchain, name eos.Name, c *Contract) *instrument.SiteTable {
	t.Helper()
	res, err := instrument.Instrument(c.Module, instrument.ModeSparse)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	if err := bc.DeployModule(name, mustCompile(t, res.Module), c.ABI, res.Sites); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return res.Sites
}

func transferTx(from, to eos.Name, quantity, memo string) chain.Transaction {
	return chain.Transaction{Actions: []chain.Action{{
		Account:       eos.TokenContract,
		Name:          eos.ActionTransfer,
		Authorization: []chain.PermissionLevel{{Actor: from, Permission: eos.ActiveAuth}},
		Data: chain.EncodeTransfer(chain.TransferArgs{
			From: from, To: to, Quantity: eos.MustAsset(quantity), Memo: memo,
		}),
	}}}
}

// TestGeneratedContractRunsOnChain drives a full instrumented execution: a
// real EOS transfer notifies the contract, the eosponser runs, records a
// bet and the hooks emit a trace.
func TestGeneratedContractRunsOnChain(t *testing.T) {
	c := generate(t, Spec{Class: ClassFakeNotif, Vulnerable: false, Seed: 7})
	bc := chain.New()
	bc.Collector = trace.NewCollector()
	deployInstrumented(t, bc, victim, c)
	bc.CreateAccount(attacker)
	if err := bc.Issue(eos.TokenContract, attacker, eos.MustAsset("100.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}

	rcpt := bc.PushTransaction(transferTx(attacker, victim, "5.0000 EOS", "bet"))
	if rcpt.Err != nil {
		t.Fatalf("transfer: %v", rcpt.Err)
	}
	// The bet row was stored under the victim's scope.
	if n := bc.DB().Rows(victim, victim, TableBets); n != 1 {
		t.Errorf("bets rows = %d, want 1", n)
	}
	// A trace was captured for the victim only.
	var victimTraces int
	for _, tr := range rcpt.Traces {
		if tr.Contract == victim {
			victimTraces++
			if len(tr.Events) == 0 {
				t.Error("victim trace is empty")
			}
		}
	}
	if victimTraces == 0 {
		t.Fatal("no victim trace captured")
	}
}

// TestFakeNotifGuardBlocksWrongRecipient checks the to != self early return.
func TestFakeNotifGuardBlocksWrongRecipient(t *testing.T) {
	c := generate(t, Spec{Class: ClassFakeNotif, Vulnerable: false, Seed: 8})
	bc := chain.New()
	agent := eos.MustName("fake.notif")
	bc.DeployNative(agent, &chain.ForwarderAgent{Victim: victim}, nil)
	deployInstrumented(t, bc, victim, c)
	bc.CreateAccount(attacker)
	if err := bc.Issue(eos.TokenContract, attacker, eos.MustAsset("100.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	// Pay the agent; the forwarded notification must NOT record a bet.
	rcpt := bc.PushTransaction(transferTx(attacker, agent, "5.0000 EOS", ""))
	if rcpt.Err != nil {
		t.Fatalf("transfer: %v", rcpt.Err)
	}
	if n := bc.DB().Rows(victim, victim, TableBets); n != 0 {
		t.Errorf("guarded contract recorded %d bets from forwarded notification", n)
	}

	// The vulnerable variant accepts the forged notification.
	cv := generate(t, Spec{Class: ClassFakeNotif, Vulnerable: true, Seed: 8})
	victim2 := eos.MustName("victim2")
	bc.DeployNative(eos.MustName("fake.notif2"), &chain.ForwarderAgent{Victim: victim2}, nil)
	deployInstrumented(t, bc, victim2, cv)
	rcpt = bc.PushTransaction(transferTx(attacker, eos.MustName("fake.notif2"), "5.0000 EOS", ""))
	if rcpt.Err != nil {
		t.Fatalf("transfer 2: %v", rcpt.Err)
	}
	if n := bc.DB().Rows(victim2, victim2, TableBets); n != 1 {
		t.Errorf("vulnerable contract rows = %d, want 1 (accepted forged notification)", n)
	}
}

// TestFakeEOSGuard checks the code == eosio.token assert in apply.
func TestFakeEOSGuard(t *testing.T) {
	bc := chain.New()
	fake := eos.MustName("fake.token")
	bc.DeployNative(fake, &chain.TokenContract{Issuer: fake, Sym: eos.EOSSymbol}, nil)
	bc.CreateAccount(attacker)
	if err := bc.Issue(fake, attacker, eos.MustAsset("100.0000 EOS")); err != nil {
		t.Fatalf("issue fake: %v", err)
	}

	fakeTransfer := func(to eos.Name) chain.Transaction {
		return chain.Transaction{Actions: []chain.Action{{
			Account:       fake,
			Name:          eos.ActionTransfer,
			Authorization: []chain.PermissionLevel{{Actor: attacker, Permission: eos.ActiveAuth}},
			Data: chain.EncodeTransfer(chain.TransferArgs{
				From: attacker, To: to, Quantity: eos.MustAsset("5.0000 EOS"),
			}),
		}}}
	}

	safe := generate(t, Spec{Class: ClassFakeEOS, Vulnerable: false, Seed: 9})
	deployInstrumented(t, bc, victim, safe)
	rcpt := bc.PushTransaction(fakeTransfer(victim))
	if rcpt.Err != nil {
		// The whole transaction reverts because the victim's assert fires
		// during notification processing.
		if n := bc.DB().Rows(victim, victim, TableBets); n != 0 {
			t.Errorf("rows = %d after reverted fake transfer", n)
		}
	} else {
		t.Fatal("safe contract accepted fake EOS (transaction committed)")
	}

	vul := generate(t, Spec{Class: ClassFakeEOS, Vulnerable: true, Seed: 9})
	victim2 := eos.MustName("victim2")
	deployInstrumented(t, bc, victim2, vul)
	rcpt = bc.PushTransaction(fakeTransfer(victim2))
	if rcpt.Err != nil {
		t.Fatalf("vulnerable contract rejected fake EOS: %v", rcpt.Err)
	}
	if n := bc.DB().Rows(victim2, victim2, TableBets); n != 1 {
		t.Errorf("rows = %d, want 1 (fake EOS accepted)", n)
	}
}

// TestMissAuthSweep verifies that only the unguarded sweep moves funds
// without the owner's authorization.
func TestMissAuthSweep(t *testing.T) {
	for _, vul := range []bool{true, false} {
		bc := chain.New()
		c := generate(t, Spec{Class: ClassMissAuth, Vulnerable: vul, Seed: 10})
		deployInstrumented(t, bc, victim, c)
		bc.CreateAccount(attacker)
		if err := bc.Issue(eos.TokenContract, victim, eos.MustAsset("50.0000 EOS")); err != nil {
			t.Fatalf("issue: %v", err)
		}
		// The attacker invokes sweep with from=victim but signs as attacker:
		// only the vulnerable contract lets this through.
		data := chain.EncodeTransfer(chain.TransferArgs{
			From: victim, To: attacker, Quantity: eos.MustAsset("50.0000 EOS"),
		})
		rcpt := bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
			Account:       victim,
			Name:          ActionSweep,
			Authorization: []chain.PermissionLevel{{Actor: attacker, Permission: eos.ActiveAuth}},
			Data:          data,
		}}})
		got := bc.Balance(eos.TokenContract, attacker).Amount
		if vul {
			if rcpt.Err != nil {
				t.Fatalf("vulnerable sweep failed: %v", rcpt.Err)
			}
			if got != 500000 {
				t.Errorf("attacker balance = %d, want 500000 (funds stolen)", got)
			}
		} else {
			if rcpt.Err == nil {
				t.Fatal("guarded sweep succeeded without authorization")
			}
			if got != 0 {
				t.Errorf("attacker balance = %d, want 0", got)
			}
		}
	}
}

// TestRevealBranchesAndTemplate drives the reveal action through its nested
// branches with the exact constants and checks the payout paths.
func TestRevealBranchesAndTemplate(t *testing.T) {
	luckyFrom := eos.MustName("luckyplayer")
	spec := Spec{
		Class:      ClassRollback,
		Vulnerable: true,
		Branches:   []BranchCheck{{Field: "from", Value: uint64(luckyFrom)}},
		Seed:       11,
	}
	c := generate(t, spec)
	bc := chain.New()
	deployInstrumented(t, bc, victim, c)
	bc.CreateAccount(luckyFrom)
	if err := bc.Issue(eos.TokenContract, victim, eos.MustAsset("1000.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}

	invoke := func(from eos.Name) *chain.Receipt {
		data := chain.EncodeTransfer(chain.TransferArgs{
			From: from, To: victim, Quantity: eos.MustAsset("10.0000 EOS"),
		})
		return bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
			Account:       victim,
			Name:          ActionReveal,
			Authorization: []chain.PermissionLevel{{Actor: from, Permission: eos.ActiveAuth}},
			Data:          data,
		}}})
	}

	// Wrong `from`: branch not taken, no payout attempt.
	rcpt := invoke(attacker)
	if rcpt.Err != nil {
		t.Fatalf("reveal(wrong from): %v", rcpt.Err)
	}
	if len(rcpt.InlineSent) != 0 {
		t.Errorf("payout sent on unmatched branch")
	}

	// Matching `from`: the template runs; depending on the block state the
	// payout may or may not fire, so step blocks until it does.
	paid := false
	for i := 0; i < 20 && !paid; i++ {
		rcpt = invoke(luckyFrom)
		if rcpt.Err != nil {
			t.Fatalf("reveal(lucky): %v", rcpt.Err)
		}
		paid = len(rcpt.InlineSent) > 0
	}
	if !paid {
		t.Error("template never paid out in 20 blocks")
	}
	if got := bc.Balance(eos.TokenContract, luckyFrom).Amount; !paid || got == 0 {
		t.Errorf("lucky player balance = %d", got)
	}
}

// TestVerificationInjection checks the §4.3 unreachable-guarded checks.
func TestVerificationInjection(t *testing.T) {
	spec := Spec{
		Class:      ClassFakeEOS,
		Vulnerable: true,
		Verification: []VerCheck{
			{Field: "amount", Value: 1000000},
			{Field: "symbol", Value: uint64(eos.EOSSymbol)},
		},
		Seed: 12,
	}
	c := generate(t, spec)
	bc := chain.New()
	deployInstrumented(t, bc, victim, c)
	bc.CreateAccount(attacker)
	if err := bc.Issue(eos.TokenContract, attacker, eos.MustAsset("500.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	// Wrong amount: unreachable -> transaction reverts.
	rcpt := bc.PushTransaction(transferTx(attacker, victim, "5.0000 EOS", ""))
	if rcpt.Err == nil {
		t.Fatal("verification did not reject wrong amount")
	}
	// Exact amount passes.
	rcpt = bc.PushTransaction(transferTx(attacker, victim, "100.0000 EOS", ""))
	if rcpt.Err != nil {
		t.Fatalf("verification rejected the elaborate input: %v", rcpt.Err)
	}
}

// TestDBDependentReveal requires a deposit before reveal succeeds.
func TestDBDependentReveal(t *testing.T) {
	spec := Spec{Class: ClassRollback, Vulnerable: true, DBDependent: true, Seed: 13}
	c := generate(t, spec)
	bc := chain.New()
	deployInstrumented(t, bc, victim, c)
	bc.CreateAccount(attacker)
	if err := bc.Issue(eos.TokenContract, victim, eos.MustAsset("100.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	data := chain.EncodeTransfer(chain.TransferArgs{
		From: attacker, To: victim, Quantity: eos.MustAsset("10.0000 EOS"),
	})
	mkTx := func(action eos.Name) chain.Transaction {
		return chain.Transaction{Actions: []chain.Action{{
			Account:       victim,
			Name:          action,
			Authorization: []chain.PermissionLevel{{Actor: attacker, Permission: eos.ActiveAuth}},
			Data:          data,
		}}}
	}
	if rcpt := bc.PushTransaction(mkTx(ActionReveal)); rcpt.Err == nil {
		t.Fatal("reveal succeeded without deposit")
	}
	if rcpt := bc.PushTransaction(mkTx(ActionDeposit)); rcpt.Err != nil {
		t.Fatalf("deposit: %v", rcpt.Err)
	}
	if rcpt := bc.PushTransaction(mkTx(ActionReveal)); rcpt.Err != nil {
		t.Fatalf("reveal after deposit: %v", rcpt.Err)
	}
}

// TestInaccessibleTemplateNeverFires: the contradictory wrapper keeps the
// vulnerable template unreachable.
func TestInaccessibleTemplateNeverFires(t *testing.T) {
	spec := Spec{Class: ClassRollback, Vulnerable: true, Inaccessible: true, Seed: 14}
	if spec.GroundTruth() {
		t.Fatal("inaccessible spec must be ground-truth safe")
	}
	c := generate(t, spec)
	bc := chain.New()
	deployInstrumented(t, bc, victim, c)
	bc.CreateAccount(attacker)
	if err := bc.Issue(eos.TokenContract, victim, eos.MustAsset("100.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	data := chain.EncodeTransfer(chain.TransferArgs{
		From: attacker, To: victim, Quantity: eos.MustAsset("10.0000 EOS"),
	})
	for i := 0; i < 10; i++ {
		rcpt := bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
			Account:       victim,
			Name:          ActionReveal,
			Authorization: []chain.PermissionLevel{{Actor: attacker, Permission: eos.ActiveAuth}},
			Data:          data,
		}}})
		if rcpt.Err != nil {
			t.Fatalf("reveal %d: %v", i, rcpt.Err)
		}
		if len(rcpt.InlineSent) != 0 {
			t.Fatal("inaccessible template fired")
		}
	}
}

func TestRandomSpecDeterministicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		for _, class := range Classes {
			spec := RandomSpec(class, i%2 == 0, rng)
			if _, err := Generate(spec); err != nil {
				t.Fatalf("Generate(%+v): %v", spec, err)
			}
		}
	}
}
