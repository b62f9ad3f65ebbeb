package contractgen

import (
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/wasm"
)

func TestObfuscatePreservesBehaviour(t *testing.T) {
	// The obfuscated contract must behave exactly like the original on the
	// chain: same accept/reject decisions, same DB effects.
	spec := Spec{Class: ClassFakeNotif, Vulnerable: false, Seed: 3}
	run := func(obfuscate bool) (bets int, guardWorked bool) {
		c, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if obfuscate {
			if _, err := Obfuscate(c.Module, ObfuscateOptions{
				Popcount: true, OpaqueRecursion: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		bc := chain.New()
		if err := bc.DeployModule(victim, mustCompile(t, c.Module), c.ABI, nil); err != nil {
			t.Fatal(err)
		}
		agent := eos.MustName("fake.notif")
		bc.DeployNative(agent, &chain.ForwarderAgent{Victim: victim}, nil)
		bc.CreateAccount(attacker)
		if err := bc.Issue(eos.TokenContract, attacker, eos.MustAsset("100.0000 EOS")); err != nil {
			t.Fatal(err)
		}
		// Legit transfer: bet recorded.
		rcpt := bc.PushTransaction(transferTx(attacker, victim, "5.0000 EOS", ""))
		if rcpt.Err != nil {
			t.Fatalf("legit transfer: %v", rcpt.Err)
		}
		// Forwarded notification: guard must reject it.
		rcpt = bc.PushTransaction(transferTx(attacker, agent, "5.0000 EOS", ""))
		if rcpt.Err != nil {
			t.Fatalf("forwarded: %v", rcpt.Err)
		}
		return bc.DB().Rows(victim, victim, TableBets), bc.DB().Rows(victim, victim, TableBets) == 1
	}
	plainBets, plainGuard := run(false)
	obfBets, obfGuard := run(true)
	if plainBets != obfBets || plainGuard != obfGuard {
		t.Errorf("behaviour diverged: plain (%d, %v) vs obfuscated (%d, %v)",
			plainBets, plainGuard, obfBets, obfGuard)
	}
}

func TestObfuscateInsertsRecursionAndPopcount(t *testing.T) {
	c, err := Generate(Spec{Class: ClassFakeEOS, Vulnerable: false, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := len(c.Module.Code)
	if _, err := Obfuscate(c.Module, ObfuscateOptions{Popcount: true, OpaqueRecursion: true}); err != nil {
		t.Fatal(err)
	}
	if len(c.Module.Code) != before+1 {
		t.Errorf("opaque recursion function not added: %d -> %d", before, len(c.Module.Code))
	}
	// The final function is obf_rec, whose opaque predicate legitimately
	// compares constants (it is inserted after the popcount pass).
	var popcnts, eqAgainstConst int
	for _, code := range c.Module.Code[:len(c.Module.Code)-1] {
		for i, in := range code.Body {
			if in.Op == wasm.OpI64Popcnt {
				popcnts++
			}
			if in.Op == wasm.OpI64Eq && i > 0 && code.Body[i-1].Op == wasm.OpI64Const {
				eqAgainstConst++
			}
		}
	}
	if popcnts == 0 {
		t.Error("no popcount encodings inserted")
	}
	if eqAgainstConst != 0 {
		t.Errorf("%d constant comparisons survived the popcount pass", eqAgainstConst)
	}
	// Still a valid module that round-trips.
	bin, err := wasm.Encode(c.Module)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wasm.Decode(bin); err != nil {
		t.Fatal(err)
	}
}

func TestObfuscateGuardProbRequiresRng(t *testing.T) {
	c, err := Generate(Spec{Class: ClassFakeNotif, Vulnerable: false, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Obfuscate(c.Module, ObfuscateOptions{Popcount: true, GuardObfProb: 0.5}); err == nil {
		t.Error("GuardObfProb without Rng accepted")
	}
	if _, err := Obfuscate(c.Module, ObfuscateOptions{
		Popcount: true, GuardObfProb: 1.0, Rng: rand.New(rand.NewSource(1)),
	}); err != nil {
		t.Errorf("with rng: %v", err)
	}
	// With probability 1 every guard comparison is encoded: no i64.ne left.
	for _, code := range c.Module.Code {
		for _, in := range code.Body {
			if in.Op == wasm.OpI64Ne || in.Op == wasm.OpI64Eq {
				t.Fatal("a comparison survived GuardObfProb=1")
			}
		}
	}
}
