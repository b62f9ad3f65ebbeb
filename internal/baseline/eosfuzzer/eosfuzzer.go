// Package eosfuzzer re-implements the EOSFuzzer baseline (Huang et al.,
// Internetware 2020) as the paper characterizes it: a black-box fuzzer that
// "only generates random seeds without leveraging feedback" and whose
// oracles carry the documented flaws:
//
//   - Fake EOS: "it reports positive no matter which action is invoked
//     after receiving fake EOS" and, under complicated verification, "it
//     outputs a positive report in detecting Fake EOS if none of the
//     transactions is executed successfully" (§4.2-§4.3);
//   - Fake Notif: behaviour-based — it needs the forged notification to
//     produce an observable state change, so guard-free contracts whose
//     service hides behind unexplored branches are missed (§4.2);
//   - BlockinfoDep: it only monitors transfer handling, never direct
//     actions, and therefore scores 0 on the reveal-style samples (§4.2);
//   - MissAuth and Rollback: unsupported (the '-' cells of Table 4).
package eosfuzzer

import (
	"fmt"
	"math/rand"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// Campaign account names (shared shape with the WASAI engine).
var (
	attackerName  = eos.MustName("attacker")
	fakeTokenName = eos.MustName("fake.token")
	agentName     = eos.MustName("fake.notif")
	victimName    = eos.MustName("victim")
)

// Config tunes the baseline.
type Config struct {
	Iterations int
	Seed       int64
}

// DefaultConfig mirrors the WASAI campaign budget for fair comparison.
func DefaultConfig() Config { return Config{Iterations: 240, Seed: 1} }

// Result is the baseline's campaign outcome.
type Result struct {
	// Report covers only the classes EOSFuzzer supports; the others stay
	// false (Table 4 dashes).
	Report           map[contractgen.Class]bool
	Coverage         int
	CoverageOverTime []CoveragePoint
}

// CoveragePoint samples cumulative branch coverage.
type CoveragePoint struct {
	Iteration int
	Branches  int
}

// Run executes a random-seed campaign against the contract.
func Run(mod *wasm.Module, contractABI *abi.ABI, cfg Config) (*Result, error) {
	res, err := instrument.Instrument(mod, instrument.ModeSparse)
	if err != nil {
		return nil, fmt.Errorf("eosfuzzer: instrument: %w", err)
	}
	compiled, err := exec.Compile(res.Module)
	if err != nil {
		return nil, fmt.Errorf("eosfuzzer: compile: %w", err)
	}
	bc := chain.New()
	bc.Collector = trace.NewCollector()
	if err := bc.DeployModule(victimName, compiled, contractABI, res.Sites); err != nil {
		return nil, fmt.Errorf("eosfuzzer: deploy: %w", err)
	}
	bc.DeployNative(fakeTokenName, &chain.TokenContract{Issuer: fakeTokenName, Sym: eos.EOSSymbol}, abi.TransferABI())
	bc.DeployNative(agentName, &chain.ForwarderAgent{Victim: victimName}, nil)
	bc.CreateAccount(attackerName)
	for _, fund := range []func() error{
		func() error { return bc.Issue(eos.TokenContract, attackerName, eos.EOS(1_000_000_000_000)) },
		func() error { return bc.Issue(eos.TokenContract, victimName, eos.EOS(1_000_000_000_000)) },
		func() error { return bc.Issue(fakeTokenName, attackerName, eos.EOS(1_000_000_000_000)) },
	} {
		if err := fund(); err != nil {
			return nil, fmt.Errorf("eosfuzzer: funding: %w", err)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	coverage := map[trace.BranchKey]struct{}{}
	out := &Result{Report: map[contractgen.Class]bool{}}

	var (
		anyCommitted    bool
		fakeAttempted   bool
		fakeEOSPositive bool
		fakeNotifPos    bool
	)

	actions := make([]eos.Name, 0, len(contractABI.Actions))
	for _, a := range contractABI.Actions {
		actions = append(actions, a.Name)
	}

	for i := 0; i < cfg.Iterations; i++ {
		kind := i % 4
		params := randomTransferArgs(rng)
		var act chain.Action
		switch kind {
		case 0: // fake EOS: direct invocation of the eosponser
			fakeAttempted = true
			act = chain.Action{Account: victimName, Name: eos.ActionTransfer, Data: encode(params)}
			act.Authorization = auth(attackerName)
		case 1: // fake EOS: counterfeit token transfer
			fakeAttempted = true
			params.From, params.To = attackerName, victimName
			params.Quantity = clamp(params.Quantity)
			act = chain.Action{Account: fakeTokenName, Name: eos.ActionTransfer, Data: encode(params)}
			act.Authorization = auth(attackerName)
		case 2: // forged notification through the agent
			params.From, params.To = attackerName, agentName
			params.Quantity = clamp(params.Quantity)
			act = chain.Action{Account: eos.TokenContract, Name: eos.ActionTransfer, Data: encode(params)}
			act.Authorization = auth(attackerName)
		default: // a random action with random data
			name := actions[rng.Intn(len(actions))]
			act = chain.Action{Account: victimName, Name: name, Data: encode(params)}
			signer := params.From
			bc.CreateAccount(signer)
			act.Authorization = auth(signer)
		}

		rcpt := bc.PushTransaction(chain.Transaction{Actions: []chain.Action{act}})
		if !rcpt.Reverted() {
			anyCommitted = true
		}

		victimEffect := false
		for _, op := range rcpt.DBOps {
			if op.Contract == victimName && op.Kind == chain.DBWrite {
				victimEffect = true
			}
		}
		if len(rcpt.InlineSent) > 0 {
			victimEffect = true
		}

		// Oracle flaw: any observable behaviour after a fake-EOS attempt is
		// attributed to the fake EOS.
		if fakeAttempted && victimEffect && !rcpt.Reverted() {
			fakeEOSPositive = true
		}
		if kind == 2 && victimEffect && !rcpt.Reverted() {
			fakeNotifPos = true
		}

		for i := range rcpt.Traces {
			if rcpt.Traces[i].Contract == victimName {
				rcpt.Traces[i].AddBranches(coverage)
			}
		}
		out.CoverageOverTime = append(out.CoverageOverTime, CoveragePoint{Iteration: i + 1, Branches: len(coverage)})
	}

	// Oracle flaw under complicated verification: when every transaction
	// reverted, EOSFuzzer cannot execute the target at all and flags Fake
	// EOS positive.
	if !anyCommitted {
		fakeEOSPositive = true
	}
	out.Report[contractgen.ClassFakeEOS] = fakeEOSPositive
	out.Report[contractgen.ClassFakeNotif] = fakeNotifPos
	// BlockinfoDep: monitored on the transfer path only; the reveal-style
	// samples never trip it, so the verdict is the oracle's constant no.
	out.Report[contractgen.ClassBlockinfoDep] = false
	out.Coverage = len(coverage)
	return out, nil
}

func auth(actor eos.Name) []chain.PermissionLevel {
	return []chain.PermissionLevel{{Actor: actor, Permission: eos.ActiveAuth}}
}

func encode(args chain.TransferArgs) []byte { return chain.EncodeTransfer(args) }

func clamp(a eos.Asset) eos.Asset {
	if a.Amount <= 0 {
		a.Amount = 1
	}
	if a.Amount > 1_000_000_000 {
		a.Amount = 1_000_000_000
	}
	a.Symbol = eos.EOSSymbol
	return a
}

func randomTransferArgs(rng *rand.Rand) chain.TransferArgs {
	known := []eos.Name{attackerName, victimName, agentName}
	pick := func() eos.Name {
		if rng.Intn(3) == 0 {
			return eos.Name(rng.Uint64())
		}
		return known[rng.Intn(len(known))]
	}
	memo := make([]byte, rng.Intn(10))
	for i := range memo {
		memo[i] = byte('a' + rng.Intn(26))
	}
	return chain.TransferArgs{
		From:     pick(),
		To:       pick(),
		Quantity: eos.Asset{Amount: int64(rng.Intn(2_000_000)), Symbol: eos.EOSSymbol},
		Memo:     string(memo),
	}
}
