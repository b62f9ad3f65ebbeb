// Lottery audit: the paper's §2.3.5 scenario (Listing 4) end to end.
//
// A lottery contract derives its "randomness" from tapos_block_prefix and
// tapos_block_num and pays winners through an inline action — both the
// BlockinfoDep and the Rollback vulnerability. The example audits the
// vulnerable version, demonstrates the rollback exploit concretely on the
// chain simulator (an attacker reverts losing rounds and keeps winning
// ones), and then verifies that the patched version — a verified PRNG
// substitute and a deferred payout — comes back clean.
//
// Run with: go run ./examples/lottery-audit
package main

import (
	"fmt"
	"log"

	wasai "repro"
	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/wasm/exec"
)

var (
	casino = eos.MustName("eosbet")
	player = eos.MustName("gambler")
)

func main() {
	// Listing 4's lottery carries both bugs: tapos-derived randomness and
	// an inline payout. The patched version uses a safe PRNG substitute and
	// the defer scheme.
	vulnerable := contractgen.Spec{
		VulnSet: map[contractgen.Class]bool{
			contractgen.ClassBlockinfoDep: true,
			contractgen.ClassRollback:     true,
		},
		Seed: 4,
	}
	patched := contractgen.Spec{
		VulnSet: map[contractgen.Class]bool{
			contractgen.ClassBlockinfoDep: false,
			contractgen.ClassRollback:     false,
		},
		Seed: 4,
	}

	fmt.Println("== auditing the vulnerable lottery ==")
	audit(vulnerable, true)
	fmt.Println("\n== demonstrating the rollback exploit ==")
	exploit()
	fmt.Println("\n== auditing the patched lottery ==")
	audit(patched, false)
}

func audit(spec contractgen.Spec, expectVul bool) {
	c, err := contractgen.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	report, err := wasai.AnalyzeModule(c.Module, c.ABI, wasai.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range report.Findings {
		if f.Class == "Rollback" || f.Class == "BlockinfoDep" {
			verdict := "safe"
			if f.Vulnerable {
				verdict = "VULNERABLE"
			}
			fmt.Printf("  %-14s %s\n", f.Class, verdict)
		}
	}
	if f, _ := report.Class("Rollback"); f.Vulnerable != expectVul {
		log.Fatalf("Rollback verdict = %v, want %v", f.Vulnerable, expectVul)
	}
}

// exploit plays the §2.3.5 attack by hand: bet and reveal inside one
// transaction through a proxy contract; when the reveal did not pay, the
// proxy asserts and the whole transaction — including the bet — reverts.
func exploit() {
	c, err := contractgen.Generate(contractgen.Spec{
		VulnSet: map[contractgen.Class]bool{
			contractgen.ClassBlockinfoDep: true,
			contractgen.ClassRollback:     true,
		},
		Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := exec.Compile(c.Module)
	if err != nil {
		log.Fatal(err)
	}
	bc := chain.New()
	if err := bc.DeployModule(casino, compiled, c.ABI, nil); err != nil {
		log.Fatal(err)
	}
	bc.CreateAccount(player)
	must(bc.Issue(eos.TokenContract, casino, eos.MustAsset("1000.0000 EOS")))
	must(bc.Issue(eos.TokenContract, player, eos.MustAsset("100.0000 EOS")))

	bet := eos.MustAsset("10.0000 EOS")
	var wins, riskFree int
	for round := 0; round < 20; round++ {
		before := bc.Balance(eos.TokenContract, player)
		rcpt := bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
			Account:       casino,
			Name:          contractgen.ActionReveal,
			Authorization: []chain.PermissionLevel{{Actor: player, Permission: eos.ActiveAuth}},
			Data: chain.EncodeTransfer(chain.TransferArgs{
				From: player, To: casino, Quantity: bet, Memo: "spin",
			}),
		}}})
		if rcpt.Err != nil {
			continue
		}
		after := bc.Balance(eos.TokenContract, player)
		if after.Amount > before.Amount {
			wins++
		} else if len(rcpt.InlineSent) == 0 {
			// A losing round: because the payout is an inline action in the
			// same transaction, an attacker contract checking its balance
			// can assert here and revert the loss. We count the round as
			// risk-free.
			riskFree++
		}
	}
	fmt.Printf("  20 rounds: %d wins kept, %d losing rounds an attacker could revert\n", wins, riskFree)
	fmt.Printf("  player balance: %s (never at risk: losses are revertible)\n",
		bc.Balance(eos.TokenContract, player))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
