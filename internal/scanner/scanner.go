// Package scanner implements the five vulnerability detectors of paper
// §3.5. The detectors are trace oracles: Engine executes the adversary
// payloads of §2.3 and the scanner inspects the function-call chains (id⃗)
// and instruction operands the traces record.
package scanner

import (
	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// APISets names the host functions each oracle reasons about.
type APISets struct {
	Auths         map[uint32]bool // permission APIs (§2.2)
	Effects       map[uint32]bool // side-effect APIs
	Blockinfo     map[uint32]bool // tapos_* APIs
	SendInline    uint32
	HasSendInline bool
	EosioAssert   uint32
}

// APISetsFor derives the import-index sets from a module's import section.
func APISetsFor(m *wasm.Module) APISets {
	s := APISets{
		Auths:     map[uint32]bool{},
		Effects:   map[uint32]bool{},
		Blockinfo: map[uint32]bool{},
	}
	idx := uint32(0)
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternalFunc {
			continue
		}
		switch {
		case chain.PermissionAPIs[imp.Name]:
			s.Auths[idx] = true
		case chain.EffectAPIs[imp.Name]:
			s.Effects[idx] = true
			if imp.Name == chain.APISendInline {
				s.SendInline = idx
				s.HasSendInline = true
			}
		case chain.BlockinfoAPIs[imp.Name]:
			s.Blockinfo[idx] = true
		case imp.Name == chain.APIEosioAssert:
			s.EosioAssert = idx
		}
		idx++
	}
	return s
}

// Report is the per-class verdict of one fuzzing campaign.
type Report struct {
	Vulnerable map[contractgen.Class]bool
}

// NewReport returns an all-clear report.
func NewReport() *Report {
	return &Report{Vulnerable: map[contractgen.Class]bool{}}
}

// Scanner accumulates oracle evidence across the fuzzing campaign.
type Scanner struct {
	apis APISets
	self eos.Name

	// eosponser identification (§3.5: id_e located from a valid EOS
	// transaction's traces).
	eosponserID  uint32
	hasEosponser bool

	// Evidence.
	fakeEOSHit   bool // eosponser entered under the Fake EOS oracle
	fakeNotifHit bool // eosponser entered under the Fake Notif oracle
	guardSeen    bool // i64.eq/ne over (agent, _self) observed in eosponser
	missAuthHit  bool
	blockinfoHit bool
	rollbackHit  bool

	// On-chain-data scenario evidence (WACANA's multi-transaction
	// families), fed by the fuzzer's scenario driver only — the concolic
	// main loop never touches these, so the five trace-oracle verdicts
	// above are independent of the scenario runs.
	stateTamperHit   bool
	orderDepHit      bool
	crossContractHit bool

	customs []CustomDetector
}

// New returns a scanner for a contract deployed as self.
func New(m *wasm.Module, self eos.Name) *Scanner {
	return &Scanner{apis: APISetsFor(m), self: self}
}

// RecordEosponser locates id_e from a transfer-dispatch trace: the callee
// of the first indirect call (the dispatcher's action invocation).
func (s *Scanner) RecordEosponser(tr *trace.Trace) {
	if s.hasEosponser {
		return
	}
	for _, ev := range tr.Events {
		if ev.Kind == trace.HookCall && ev.Op == wasm.OpCallIndirect {
			s.eosponserID = uint32(ev.Operand)
			s.hasEosponser = true
			return
		}
	}
}

// EosponserID returns id_e when known.
func (s *Scanner) EosponserID() (uint32, bool) { return s.eosponserID, s.hasEosponser }

// eosponserEntered reports whether id_e's body began executing in tr.
func (s *Scanner) eosponserEntered(tr *trace.Trace) bool {
	if !s.hasEosponser {
		return false
	}
	for _, ev := range tr.Events {
		if ev.Kind == trace.HookFuncBegin && ev.Func == s.eosponserID {
			return true
		}
	}
	return false
}

// ObserveFakeEOS feeds traces produced under the Fake EOS oracle (§2.3.1):
// a direct eosponser invocation or a transfer of counterfeit EOS. The
// contract is vulnerable if the eosponser actually ran: vul := id_e ∈ id⃗.
func (s *Scanner) ObserveFakeEOS(traces []trace.Trace) {
	for i := range traces {
		if s.eosponserEntered(&traces[i]) {
			s.fakeEOSHit = true
		}
	}
}

// ObserveFakeNotif feeds traces produced under the Fake Notification oracle
// (§2.3.2): a genuine eosio.token notification forwarded by the agent. The
// oracle needs both the hit (id_e ∈ id⃗) and the absence of guard code —
// an i64.eq/i64.ne whose operands are the agent's name and _self:
//
//	vul := id_e ∈ id⃗ ∧ τ⃗ ∌ (i64.eq|i64.ne, (fake.notif, _self))
func (s *Scanner) ObserveFakeNotif(traces []trace.Trace, agent eos.Name) {
	for i := range traces {
		tr := &traces[i]
		if !s.eosponserEntered(tr) {
			continue
		}
		s.fakeNotifHit = true
		// Scan HookCmp operand pairs (emitted a then b per comparison).
		evs := tr.Events
		for j := 0; j+1 < len(evs); j++ {
			if evs[j].Kind != trace.HookCmp || evs[j+1].Kind != trace.HookCmp {
				continue
			}
			a, b := evs[j].Operand, evs[j+1].Operand
			pair := map[uint64]bool{a: true, b: true}
			if pair[uint64(agent)] && pair[uint64(s.self)] {
				s.guardSeen = true
			}
			j++ // consume the pair
		}
	}
}

// ObserveDirectAction feeds traces of a directly invoked (code == receiver)
// non-transfer action: the scope of the MissAuth oracle.
//
//	vul := any({ id⃗[0→i] ∩ Auths = ∅ ∧ id_i ∈ Effects | i > 0 })
func (s *Scanner) ObserveDirectAction(traces []trace.Trace) {
	for i := range traces {
		authSeen := false
		for _, ev := range traces[i].Events {
			if ev.Kind != trace.HookCall {
				continue
			}
			id := uint32(ev.Operand)
			if s.apis.Auths[id] {
				authSeen = true
			}
			if s.apis.Effects[id] && !authSeen {
				s.missAuthHit = true
			}
		}
	}
}

// Observe feeds every trace for the campaign-wide oracles:
//
//	BlockinfoDep: id⃗ ∩ {#tapos_block_prefix, #tapos_block_num} ≠ ∅
//	Rollback:     #send_inline ∈ id⃗
func (s *Scanner) Observe(traces []trace.Trace) {
	for i := range traces {
		for _, ev := range traces[i].Events {
			if ev.Kind != trace.HookCall {
				continue
			}
			id := uint32(ev.Operand)
			if s.apis.Blockinfo[id] {
				s.blockinfoHit = true
			}
			if s.apis.HasSendInline && id == s.apis.SendInline {
				s.rollbackHit = true
			}
		}
	}
}

// ObserveTamperPair feeds the state-tampering scenario: the same action
// replayed twice with identical payloads, first under the payload owner's
// authority, then under the attacker's. The contract is vulnerable when
// the attacker-signed replay commits AND rewrites a (table, key) the
// owner-signed transaction wrote — on-chain state established under one
// authority was overwritten under another. Only the action's own writes
// count: notification-driven bookkeeping (the eosponser reacting to a
// payout) is authorized by the token transfer itself and belongs to the
// Fake EOS / MissAuth oracle domains.
func (s *Scanner) ObserveTamperPair(action eos.Name, owner, tamper *chain.Receipt) {
	if owner.Reverted() || tamper.Reverted() {
		return
	}
	type rowKey struct {
		table eos.Name
		key   uint64
	}
	owned := map[rowKey]bool{}
	for _, op := range owner.DBOps {
		if op.Contract == s.self && op.Action == action && op.Kind == chain.DBWrite {
			owned[rowKey{op.Table, op.Key}] = true
		}
	}
	for _, op := range tamper.DBOps {
		if op.Contract == s.self && op.Action == action && op.Kind == chain.DBWrite &&
			owned[rowKey{op.Table, op.Key}] {
			s.stateTamperHit = true
		}
	}
}

// ObserveOrderOutcome feeds the transaction-ordering scenario: the same
// set of independently authorized transactions executed in two orders,
// each from the same pristine chain state (with block state frozen, so
// tapos cannot masquerade as ordering dependence). Each outcome string canonically encodes the
// per-actor commit results and the victim's database dump; any divergence
// means the contract's observable behaviour depends on transaction order.
func (s *Scanner) ObserveOrderOutcome(forward, reversed string) {
	if forward != reversed {
		s.orderDepHit = true
	}
}

// ObserveNotifyContext feeds the inter-contract call scenario: the victim
// traces produced while a malicious notifier relays attacker actions, so
// every trace here runs with code naming the foreign contract. The
// contract is vulnerable if it performs an inline action send in that
// context — privileged logic was reachable through a contract boundary
// the attacker controls.
func (s *Scanner) ObserveNotifyContext(traces []trace.Trace) {
	if !s.apis.HasSendInline {
		return
	}
	for i := range traces {
		for _, ev := range traces[i].Events {
			if ev.Kind == trace.HookCall && uint32(ev.Operand) == s.apis.SendInline {
				s.crossContractHit = true
			}
		}
	}
}

// ScenarioOutcome is the evidence of one scenario pass: which of its three
// classes fired. The pass is a pure function of the contract and its
// chain setup, so a job may take the outcome of an earlier job's pass.
type ScenarioOutcome struct{ StateTamper, OrderDep, CrossContract bool }

// Scenarios returns the scenario evidence observed so far.
func (s *Scanner) Scenarios() ScenarioOutcome {
	return ScenarioOutcome{StateTamper: s.stateTamperHit, OrderDep: s.orderDepHit, CrossContract: s.crossContractHit}
}

// ObserveScenarios adds the evidence of a scenario pass over the same
// contract that another scanner observed.
func (s *Scanner) ObserveScenarios(o ScenarioOutcome) {
	s.stateTamperHit = s.stateTamperHit || o.StateTamper
	s.orderDepHit = s.orderDepHit || o.OrderDep
	s.crossContractHit = s.crossContractHit || o.CrossContract
}

// Report produces the final per-class verdict. The Fake Notif verdict is
// the timeout-closed form of §3.5: if the guard was never observed by the
// end of fuzzing, the contract is flagged.
func (s *Scanner) Report() *Report {
	r := NewReport()
	r.Vulnerable[contractgen.ClassFakeEOS] = s.fakeEOSHit
	r.Vulnerable[contractgen.ClassFakeNotif] = s.fakeNotifHit && !s.guardSeen
	r.Vulnerable[contractgen.ClassMissAuth] = s.missAuthHit
	r.Vulnerable[contractgen.ClassBlockinfoDep] = s.blockinfoHit
	r.Vulnerable[contractgen.ClassRollback] = s.rollbackHit
	r.Vulnerable[contractgen.ClassStateTamper] = s.stateTamperHit
	r.Vulnerable[contractgen.ClassOrderDep] = s.orderDepHit
	r.Vulnerable[contractgen.ClassCrossContract] = s.crossContractHit
	return r
}
