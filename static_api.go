package wasai

import (
	"encoding/json"
	"fmt"

	"repro/internal/abi"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/static"
	"repro/internal/static/absint"
	"repro/internal/wasm"
)

// StaticCandidate is one oracle class's static candidate verdict.
type StaticCandidate struct {
	// Class is the vulnerability class name (same names as Finding.Class).
	Class string
	// Candidate reports whether the class is statically possible. False is
	// a proof the dynamic oracle cannot fire on this contract; true only
	// means the contract is worth fuzzing.
	Candidate bool
}

// StaticReport is the pre-execution analysis of one contract: candidate
// flags per vulnerability class, the host APIs reachable from its exported
// entry points, and cost metrics. It is computed from bytecode alone — no
// chain, no execution. AnalyzeVerdicts proves negative every class whose
// candidate flag is false, and more.
type StaticReport struct {
	// Candidates holds one entry per vulnerability class, in the paper's
	// table order.
	Candidates []StaticCandidate
	// ReachableHostAPIs lists the host imports reachable from the
	// contract's exported functions, sorted.
	ReachableHostAPIs []string
	// TaintedSinks lists reachable host-API sinks that can observe
	// action-input data per the heuristic taint pass, sorted.
	TaintedSinks []string
	// Branches and Complexity total the reachable conditional branch sites
	// and cyclomatic complexity — the fuzzing cost estimate.
	Branches, Complexity int
	// Score estimates how much fuzzing the contract deserves (higher =
	// more).
	Score int
}

// AnyCandidate reports whether any class is statically possible.
func (r *StaticReport) AnyCandidate() bool {
	for _, c := range r.Candidates {
		if c.Candidate {
			return true
		}
	}
	return false
}

// AnalyzeStatic runs the static pre-analysis over a contract binary: decode,
// validate, then internal/static's CFG + call-graph + reachability + taint
// pass. No execution happens. To skip provably clean contracts in a batch,
// set Config.Verdicts; AnalyzeVerdicts reports the proofs it skips on.
func AnalyzeStatic(wasmBin []byte) (*StaticReport, error) {
	mod, err := wasm.Decode(wasmBin)
	if err != nil {
		return nil, fmt.Errorf("wasai: decode contract: %w", err)
	}
	if err := wasm.Validate(mod); err != nil {
		return nil, fmt.Errorf("wasai: validate contract: %w", err)
	}
	return AnalyzeStaticModule(mod)
}

// ClassVerdict is one oracle class's three-valued static verdict. Where
// StaticCandidate's boolean only separates "worth fuzzing" from "provably
// clean", a verdict adds the positive direction: "proven-positive" carries
// a replayable witness that the dynamic oracle must fire.
type ClassVerdict struct {
	// Class is the vulnerability class name (same names as Finding.Class).
	Class string
	// Verdict is "proven-negative", "proven-positive" or "unknown".
	Verdict string
	// Reason states what the prover established (or why it gave up).
	Reason string
	// Scenario, Action and Assumptions describe the witness behind a
	// proven-positive verdict: the harness scenario to replay, the ABI
	// action it targets (when class-relevant), and the input constraints
	// the witness path assumed. Empty otherwise.
	Scenario    string
	Action      string
	Assumptions []string
}

// VerdictReport is the abstract-interpretation analysis of one contract:
// a three-valued verdict per vulnerability class plus the prover's
// coverage facts. Like StaticReport it is computed from bytecode alone —
// no chain, no execution. No campaign consults it: every contract is
// fuzzed.
type VerdictReport struct {
	// Verdicts holds one entry per vulnerability class, in the paper's
	// table order.
	Verdicts []ClassVerdict
	// DeadEdges counts conditional outcomes proven unreachable in any
	// harness execution (only under a complete cover).
	DeadEdges int
	// Complete reports that the prover enumerated every abstract path of
	// the universal cover.
	Complete bool
	// Paths is the number of abstract paths explored.
	Paths int
}

// AllProvenNegative reports whether every class is proven negative — the
// contract provably cannot trip any oracle, so fuzzing it is pure waste.
func (r *VerdictReport) AllProvenNegative() bool {
	for _, v := range r.Verdicts {
		if v.Verdict != absint.ProvenNegative.String() {
			return false
		}
	}
	return true
}

// AnyProvenPositive reports whether some class carries a positive proof.
func (r *VerdictReport) AnyProvenPositive() bool {
	for _, v := range r.Verdicts {
		if v.Verdict == absint.ProvenPositive.String() {
			return true
		}
	}
	return false
}

// AnalyzeVerdicts runs the abstract-interpretation verdict engine over a
// contract binary and its ABI (simplified EOSIO ABI JSON): decode,
// validate, then internal/static/absint's flow-sensitive interpretation of
// every harness scenario. No execution happens; verdicts are proofs about
// all executions the fuzzing harness can produce.
func AnalyzeVerdicts(wasmBin []byte, abiJSON []byte) (*VerdictReport, error) {
	mod, err := wasm.Decode(wasmBin)
	if err != nil {
		return nil, fmt.Errorf("wasai: decode contract: %w", err)
	}
	if err := wasm.Validate(mod); err != nil {
		return nil, fmt.Errorf("wasai: validate contract: %w", err)
	}
	var contractABI abi.ABI
	if err := json.Unmarshal(abiJSON, &contractABI); err != nil {
		return nil, fmt.Errorf("wasai: parse abi: %w", err)
	}
	return AnalyzeVerdictsModule(mod, &contractABI), nil
}

// AnalyzeVerdictsModule is AnalyzeVerdicts for an already-decoded module
// and ABI. It never fails: anything the prover cannot model degrades to
// "unknown" verdicts.
func AnalyzeVerdictsModule(mod *wasm.Module, contractABI *abi.ABI) *VerdictReport {
	rep := absint.Analyze(mod, actionNames(contractABI))
	out := &VerdictReport{
		DeadEdges: len(rep.DeadEdges),
		Complete:  rep.Complete,
		Paths:     rep.Paths,
	}
	for _, class := range contractgen.Classes {
		v := rep.Verdicts[class]
		cv := ClassVerdict{
			Class:   class.String(),
			Verdict: v.Kind.String(),
			Reason:  v.Reason,
		}
		if v.Witness != nil {
			cv.Scenario = v.Witness.Scenario
			cv.Action = v.Witness.Action
			cv.Assumptions = v.Witness.Assumptions
		}
		out.Verdicts = append(out.Verdicts, cv)
	}
	return out
}

// actionNames lists the ABI's action names in declaration order.
func actionNames(a *abi.ABI) []eos.Name {
	if a == nil {
		return nil
	}
	out := make([]eos.Name, 0, len(a.Actions))
	for _, act := range a.Actions {
		out = append(out, act.Name)
	}
	return out
}

// AnalyzeStaticModule is AnalyzeStatic for an already-decoded module.
func AnalyzeStaticModule(mod *wasm.Module) (*StaticReport, error) {
	rep, err := static.Analyze(mod)
	if err != nil {
		return nil, fmt.Errorf("wasai: static: %w", err)
	}
	out := &StaticReport{
		ReachableHostAPIs: rep.ReachableHostAPIs,
		TaintedSinks:      rep.TaintedSinks,
		Branches:          rep.Branches,
		Complexity:        rep.Complexity,
		Score:             rep.Score(),
	}
	for _, class := range contractgen.Classes {
		out.Candidates = append(out.Candidates, StaticCandidate{
			Class:     class.String(),
			Candidate: rep.Candidates[class],
		})
	}
	return out, nil
}
