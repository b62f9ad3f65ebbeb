package fuzz

// scenario.go implements the on-chain-data scenario driver: the
// multi-transaction oracle families of WACANA (state tampering across
// transactions, transaction-ordering dependence, inter-contract call
// exposure) that no single-trace oracle of §3.5 can observe. Each
// scenario replays a small, fixed transaction script from the same
// pristine chain state — no randomness, no coupling to the concolic
// loop's chain state — so the verdicts are a pure function of the target
// module and invariant under worker count and memoization. Evidence
// feeds only the scanner's scenario observers; the five trace-oracle
// verdicts are untouched by construction.

import (
	"context"
	"fmt"
	"slices"
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

// scnOrders are the two submission orders of the ordering-dependence
// scenario.
var scnOrders = [2][2]eos.Name{{scnOwnerName, scnRivalName}, {scnRivalName, scnOwnerName}}

// runScenarios executes the three scenario families for every
// non-transfer ABI action. Transfer stays out: notification handling of
// token transfers is the Fake EOS / Fake Notif oracle domain, and a
// transfer-only contract runs no pass. The pass is a pure function of the
// artifact and the job's setup key, so a job whose artifact holds the
// outcome of an earlier job's pass under the same key observes that
// outcome instead.
func (f *Fuzzer) runScenarios(ctx context.Context) error {
	if !slices.ContainsFunc(f.actions, func(act eos.Name) bool { return act != eos.ActionTransfer }) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return failure.Wrap(failure.Timeout, err)
	}
	if f.shared {
		if o, ok := f.art.scenarios(f.key); ok {
			f.scan.ObserveScenarios(o)
			return nil
		}
	}
	if err := f.playScenarios(ctx); err != nil {
		return err
	}
	if f.shared {
		// Nothing but the pass sets the scanner's scenario evidence.
		f.art.recordScenarios(f.key, f.scan.Scenarios())
	}
	return nil
}

// playScenarios runs the scenario pass. Every script runs on one scenario
// chain, in a session that is rolled back once the script's observer
// returns: each script starts from the state a fresh scenario chain would
// have. The chain is local to the pass, so it dies with it even though
// the adaptive campaign keeps the Fuzzer.
func (f *Fuzzer) playScenarios(ctx context.Context) error {
	work.scenarios.Add(1)
	bc, err := f.scenarioChain()
	if err != nil {
		return err
	}
	for _, act := range f.actions {
		if act == eos.ActionTransfer {
			continue
		}
		if err := ctx.Err(); err != nil {
			return failure.Wrap(failure.Timeout, err)
		}
		// State tampering: the attacker-signed replay of the owner's
		// payload (see tamperScript).
		playScenario(bc, act, tamperScript, func(r []*chain.Receipt) {
			f.scan.ObserveTamperPair(act, r[0], r[1])
		})
		// Ordering dependence: two independently authorized submissions
		// in both orders, compared by their canonical outcomes.
		var outcomes [2]string
		for i, order := range scnOrders {
			playScenario(bc, act, orderScript(order), func(r []*chain.Receipt) {
				outcomes[i] = orderOutcome(bc, order, r)
			})
		}
		f.scan.ObserveOrderOutcome(outcomes[0], outcomes[1])
		// Inter-contract calls: the victim's traces while a malicious
		// notifier relays the action (see crossContractScript).
		playScenario(bc, act, crossContractScript, func(r []*chain.Receipt) {
			var victimTraces []trace.Trace
			for _, tr := range r[0].Traces {
				if tr.Contract == victimName {
					victimTraces = append(victimTraces, tr)
				}
			}
			f.scan.ObserveNotifyContext(victimTraces)
		})
	}
	return nil
}

// scenarioChain builds the pristine scenario chain, mirroring the
// campaign deployment: same backend personality, same instrumented
// victim module, funded victim. Block state is held so tapos-derived
// randomness is identical across replays and permutations — without
// this, ordinary block advancement would masquerade as ordering
// dependence.
func (f *Fuzzer) scenarioChain() (*chain.Blockchain, error) {
	bc := chain.NewWithBackend(f.key.backend)
	bc.Collector = trace.NewCollector()
	bc.Fuel = f.key.fuel
	if err := bc.DeployModule(victimName, f.art.compiled, f.abi, f.art.instr.Sites); err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: scenario deploy: %w", err))
	}
	if err := bc.Issue(eos.TokenContract, victimName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: scenario fund target: %w", err)
	}
	bc.HoldBlocks = true
	return bc, nil
}

// scenarioScript pushes one scenario's fixed transaction sequence for
// act and returns the receipts in push order.
type scenarioScript func(bc *chain.Blockchain, act eos.Name) []*chain.Receipt

// playScenario runs script in a session of the scenario chain bc, hands
// its receipts to observe, and then rolls the session back. No scenario
// observer keeps a trace, so the receipts' trace buffers go back to the
// chain's collector for the next script to fill.
func playScenario(bc *chain.Blockchain, act eos.Name, script scenarioScript, observe func([]*chain.Receipt)) {
	s := bc.Begin()
	rcpts := script(bc, act)
	observe(rcpts)
	s.Rollback()
	for _, r := range rcpts {
		for _, tr := range r.Traces {
			bc.Collector.Recycle(tr.Events)
		}
	}
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

// tamperScript replays one action twice with the identical payload:
// first signed by the payload owner, then by the attacker. The scanner
// flags the contract when the attacker-signed replay commits and
// overwrites a row the owner-signed transaction established.
func tamperScript(bc *chain.Blockchain, act eos.Name) []*chain.Receipt {
	return []*chain.Receipt{
		scnPush(bc, victimName, act, scnOwnerName, scnOwnerName),
		scnPush(bc, victimName, act, scnOwnerName, attackerName),
	}
}

// orderScript returns the script that submits the action once per actor,
// in the given order, each actor signing its own payload.
func orderScript(order [2]eos.Name) scenarioScript {
	return func(bc *chain.Blockchain, act eos.Name) []*chain.Receipt {
		return []*chain.Receipt{
			scnPush(bc, victimName, act, order[0], order[0]),
			scnPush(bc, victimName, act, order[1], order[1]),
		}
	}
}

// orderOutcome renders the outcome of orderScript(order) canonically:
// per-actor commit results under fixed labels (so the encoding is a
// function of who succeeded, not of submission position) followed by the
// victim's database dump.
func orderOutcome(bc *chain.Blockchain, order [2]eos.Name, rcpts []*chain.Receipt) string {
	committed := map[eos.Name]bool{}
	for i, actor := range order {
		committed[actor] = !rcpts[i].Reverted()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s=%v %s=%v\n",
		scnOwnerName, committed[scnOwnerName], scnRivalName, committed[scnRivalName])
	sb.WriteString(bc.DB().DumpContract(victimName))
	return sb.String()
}

// crossContractScript pushes the action at a malicious notifier that
// forwards every self-addressed action to the victim, so the victim's
// apply runs with code naming the foreign contract. The scanner flags
// the contract if it sends an inline action in that context.
func crossContractScript(bc *chain.Blockchain, act eos.Name) []*chain.Receipt {
	bc.DeployNative(scnEvilName, &chain.EvilNotifier{Victim: victimName}, nil)
	return []*chain.Receipt{scnPush(bc, scnEvilName, act, attackerName, attackerName)}
}
