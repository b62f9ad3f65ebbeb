package chain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// fuelsweep_test.go compares the decoded-IR engine with the tree-walker on
// instrumented contracts at every fuel budget up to what an action costs,
// so every hook group is cut at every constituent: the hook events, the
// revert and, on success, the fuel left must be the reference's.

// sweepFixture is one contract of the sweep.
type sweepFixture struct {
	name string
	mod  *wasm.Module
	abi  *abi.ABI
}

// sweepFixtures returns wild contracts, one Table-4 contract per class,
// vulnerable, plain and obfuscated; the last three classes are the
// on-chain-data fixtures.
func sweepFixtures(t *testing.T) []sweepFixture {
	t.Helper()
	var out []sweepFixture
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(3), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GenerateWild: %v", err)
	}
	for i, w := range pop {
		out = append(out, sweepFixture{fmt.Sprintf("wild-%d", i), w.Contract.Module, w.Contract.ABI})
	}
	rng := rand.New(rand.NewSource(7))
	for _, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.RandomSpec(class, true, rng))
		if err != nil {
			t.Fatalf("Generate %v: %v", class, err)
		}
		obf, err := contractgen.Obfuscate(c.Module, contractgen.DefaultObfuscation(rng))
		if err != nil {
			t.Fatalf("Obfuscate %v: %v", class, err)
		}
		out = append(out,
			sweepFixture{"table4-" + class.String(), c.Module, c.ABI},
			sweepFixture{"obfuscated-" + class.String(), obf, c.ABI})
	}
	return out
}

// sweepOutcome is what one transaction shows of the victim's execution.
type sweepOutcome struct {
	traces []trace.Trace
	err    string
	left   int64 // fuel the victim's last apply left, on success
}

// sweepRig runs transactions on one chain per engine, each in a session
// rolled back after it.
type sweepRig struct {
	chains [2]*Blockchain // fast, reference
	victim eos.Name
}

func newSweepRig(t *testing.T, fx sweepFixture) *sweepRig {
	t.Helper()
	res, err := instrument.Instrument(fx.mod, instrument.ModeSparse)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	cm := mustCompile(t, res.Module)
	rig := &sweepRig{victim: eos.MustName("victim")}
	for i := range rig.chains {
		bc := New()
		bc.Collector = trace.NewCollector()
		if err := bc.DeployModule(rig.victim, cm, fx.abi, res.Sites); err != nil {
			t.Fatalf("deploy: %v", err)
		}
		if i == 1 {
			a := bc.Account(rig.victim)
			a.vm = exec.NewVM(a.vm.Instance())
		}
		if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("1000.0000 EOS")); err != nil {
			t.Fatalf("issue: %v", err)
		}
		bc.CreateAccount(alice)
		rig.chains[i] = bc
	}
	return rig
}

// run pushes tx on engine i (0 fast, 1 reference) under the fuel budget
// and call depth limit.
func (r *sweepRig) run(i int, tx Transaction, fuel int64, depth int) sweepOutcome {
	bc := r.chains[i]
	bc.Fuel = fuel
	vm := bc.Account(r.victim).vm
	vm.Instance().MaxCallDepth = depth
	s := bc.Begin()
	rcpt := bc.PushTransaction(tx)
	s.Rollback()
	out := sweepOutcome{traces: rcpt.Traces}
	if rcpt.Err != nil {
		out.err = rcpt.Err.Error()
	} else {
		out.left = vm.Fuel()
	}
	return out
}

// transactions returns a genuine token transfer to the victim, which it
// handles as a notification, and a direct invocation of each other action.
func (r *sweepRig) transactions(fx sweepFixture) []Transaction {
	payload := EncodeTransfer(TransferArgs{From: alice, To: r.victim, Quantity: eos.MustAsset("5.0000 EOS"), Memo: "sweep"})
	txs := []Transaction{{Actions: []Action{{
		Account: eos.TokenContract, Name: eos.ActionTransfer, Authorization: auth(alice), Data: payload,
	}}}}
	for _, act := range fx.abi.Actions {
		if act.Name != eos.ActionTransfer {
			txs = append(txs, Transaction{Actions: []Action{{
				Account: r.victim, Name: act.Name, Authorization: auth(alice), Data: payload,
			}}})
		}
	}
	return txs
}

// maxSweepFuel bounds the sweep; the fixtures' actions cost far less.
const maxSweepFuel = 20_000

// TestFuelSweepMatchesReference: at every fuel budget from 0 until the
// transaction behaves as with the default budget, and at every call depth
// limit from 1, the decoded-IR engine's hook events, revert and fuel left
// equal the tree-walker's.
func TestFuelSweepMatchesReference(t *testing.T) {
	for _, fx := range sweepFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			rig := newSweepRig(t, fx)
			for n, tx := range rig.transactions(fx) {
				full := rig.run(0, tx, exec.DefaultFuel, 250)
				fuel := int64(0)
				for ; ; fuel++ {
					if fuel > maxSweepFuel {
						t.Fatalf("tx %d: still cut short at fuel %d", n, maxSweepFuel)
					}
					fast, ref := rig.run(0, tx, fuel, 250), rig.run(1, tx, fuel, 250)
					if !reflect.DeepEqual(fast, ref) {
						t.Fatalf("tx %d at fuel %d: fast engine %+v, reference %+v", n, fuel, fast, ref)
					}
					if fast.err == full.err && reflect.DeepEqual(fast.traces, full.traces) {
						break
					}
				}
				for depth := 1; depth <= 6; depth++ {
					fast, ref := rig.run(0, tx, exec.DefaultFuel, depth), rig.run(1, tx, exec.DefaultFuel, depth)
					if !reflect.DeepEqual(fast, ref) {
						t.Fatalf("tx %d at call depth %d: fast engine %+v, reference %+v", n, depth, fast, ref)
					}
				}
			}
		})
	}
}
