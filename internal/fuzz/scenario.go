package fuzz

// scenario.go implements the on-chain-data scenario driver: the
// multi-transaction oracle families of WACANA (state tampering across
// transactions, transaction-ordering dependence, inter-contract call
// exposure) that no single-trace oracle of §3.5 can observe. Each
// scenario replays a small, fixed transaction script on a fresh chain —
// no randomness, no coupling to the concolic loop's chain state — so the
// verdicts are a pure function of the target module and invariant under
// worker count, memoization, and the fast-VM flag. Evidence feeds only
// the scanner's scenario observers; the five trace-oracle verdicts are
// untouched by construction.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/trace"
)

// Scenario-only accounts, disjoint from the campaign accounts so the
// concolic loop's seeds can never alias them.
var (
	scnOwnerName = eos.MustName("scn.owner")
	scnRivalName = eos.MustName("scn.rival")
	scnEvilName  = eos.MustName("scn.evil")
)

// scnAmount clears every generated floor assert (bets >= 1.0000 EOS,
// reveals >= 10.0000 EOS) so scenario transactions exercise the action
// bodies rather than their entry asserts.
const scnAmount = 500_000

// runScenarios executes the three scenario families for every
// non-transfer ABI action. Transfer stays out: notification handling of
// token transfers is the Fake EOS / Fake Notif oracle domain.
func (f *Fuzzer) runScenarios(ctx context.Context) error {
	acts := make([]eos.Name, 0, len(f.actions))
	for _, a := range f.actions {
		if a != eos.ActionTransfer {
			acts = append(acts, a)
		}
	}
	for _, act := range acts {
		if err := ctx.Err(); err != nil {
			return failure.Wrap(failure.Timeout, err)
		}
		if err := f.scenarioStateTamper(act); err != nil {
			return err
		}
		if err := f.scenarioOrderDep(act); err != nil {
			return err
		}
		if err := f.scenarioCrossContract(act); err != nil {
			return err
		}
	}
	return nil
}

// scenarioChain builds a fresh chain mirroring the campaign deployment:
// same backend personality, same instrumented victim module, funded
// victim. Block state is held so tapos-derived randomness is identical
// across replays and permutations — without this, ordinary block
// advancement would masquerade as ordering dependence.
func (f *Fuzzer) scenarioChain() (*chain.Blockchain, error) {
	bc := chain.NewWithBackend(f.bc.Backend())
	bc.Collector = trace.NewCollector()
	bc.Fuel = f.bc.Fuel
	if err := bc.DeployModule(victimName, f.compiled, f.abi, f.instr.Sites); err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: scenario deploy: %w", err))
	}
	if err := bc.Issue(eos.TokenContract, victimName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: scenario fund target: %w", err)
	}
	bc.HoldBlocks = true
	return bc, nil
}

// scnPush pushes one action with the shared transfer-shaped payload
// (from -> victim, a quantity above every generated floor), signed by
// `signer`. Payload and authorization are decoupled on purpose: the
// state-tampering scenario replays one payload under two authorities.
func scnPush(bc *chain.Blockchain, account, action, from, signer eos.Name) *chain.Receipt {
	bc.CreateAccount(from)
	bc.CreateAccount(signer)
	return bc.PushTransaction(chain.Transaction{Actions: []chain.Action{{
		Account:       account,
		Name:          action,
		Authorization: []chain.PermissionLevel{{Actor: signer, Permission: eos.ActiveAuth}},
		Data: chain.EncodeTransfer(chain.TransferArgs{
			From:     from,
			To:       victimName,
			Quantity: eos.EOS(scnAmount),
		}),
	}}})
}

// scenarioStateTamper replays one action twice with the identical
// payload: first signed by the payload owner, then by the attacker. The
// scanner flags the contract when the attacker-signed replay commits and
// overwrites a row the owner-signed transaction established.
func (f *Fuzzer) scenarioStateTamper(act eos.Name) error {
	bc, err := f.scenarioChain()
	if err != nil {
		return err
	}
	owner := scnPush(bc, victimName, act, scnOwnerName, scnOwnerName)
	tamper := scnPush(bc, victimName, act, scnOwnerName, attackerName)
	f.scan.ObserveTamperPair(act, owner, tamper)
	return nil
}

// scenarioOrderDep runs two independently authorized submissions of one
// action in both orders, each on its own fresh chain, and hands the
// canonical outcomes to the scanner.
func (f *Fuzzer) scenarioOrderDep(act eos.Name) error {
	forward, err := f.orderOutcome(act, [2]eos.Name{scnOwnerName, scnRivalName})
	if err != nil {
		return err
	}
	reversed, err := f.orderOutcome(act, [2]eos.Name{scnRivalName, scnOwnerName})
	if err != nil {
		return err
	}
	f.scan.ObserveOrderOutcome(forward, reversed)
	return nil
}

// orderOutcome executes the actor sequence and renders the outcome
// canonically: per-actor commit results under fixed labels (so the
// encoding is a function of who succeeded, not of submission position)
// followed by the victim's database dump.
func (f *Fuzzer) orderOutcome(act eos.Name, order [2]eos.Name) (string, error) {
	bc, err := f.scenarioChain()
	if err != nil {
		return "", err
	}
	committed := map[eos.Name]bool{}
	for _, actor := range order {
		rcpt := scnPush(bc, victimName, act, actor, actor)
		committed[actor] = !rcpt.Reverted()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s=%v %s=%v\n",
		scnOwnerName, committed[scnOwnerName], scnRivalName, committed[scnRivalName])
	sb.WriteString(bc.DB().DumpContract(victimName))
	return sb.String(), nil
}

// scenarioCrossContract pushes the action at a malicious notifier that
// forwards every self-addressed action to the victim, so the victim's
// apply runs with code naming the foreign contract. The scanner flags
// the contract if it sends an inline action in that context.
func (f *Fuzzer) scenarioCrossContract(act eos.Name) error {
	bc, err := f.scenarioChain()
	if err != nil {
		return err
	}
	bc.DeployNative(scnEvilName, &chain.EvilNotifier{Victim: victimName}, nil)
	rcpt := scnPush(bc, scnEvilName, act, attackerName, attackerName)
	var victimTraces []trace.Trace
	for _, tr := range rcpt.Traces {
		if tr.Contract == victimName {
			victimTraces = append(victimTraces, tr)
		}
	}
	f.scan.ObserveNotifyContext(victimTraces)
	return nil
}
