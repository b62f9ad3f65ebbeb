package fuzz

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/instrument"
	"repro/internal/scanner"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// Artifact is what a fuzzing job derives from its target module alone: the
// instrumented module with its site table (§3.3.1), the compiled module
// whose IR the first fast VM lowers once, and the Symback replay outcomes
// that the jobs fuzzing it have recorded. Everything but the outcomes is
// read-only once built, so any number of jobs, under any seed and
// configuration, may fuzz one artifact; the outcomes sit behind a mutex
// (see replayCache). A campaign worker keeps a table of them, so the jobs
// of one bytecode instrument, compile and lower it once, and each job's
// replays answer from what earlier jobs replayed.
//
// It also keeps what a job derives from the module and its chain setup
// (see setupKey): a pristine campaign chain that jobs borrow in turn, and
// the outcome of the scenario pass. So a job on a known setup neither
// bootstraps a chain nor replays the scenario scripts.
type Artifact struct {
	mod      *wasm.Module // original (pre-instrumentation) module
	instr    *instrument.Result
	compiled *exec.CompiledModule // instr.Module, compiled once per artifact
	replays  replayCache

	// mu guards setups: a campaign may resume parked jobs of one artifact
	// on two workers.
	mu sync.Mutex
	//wasai:localcache artifact-local: at most maxSetups entries, each a
	// chain rolled back to the state NewFrom builds and the scenario
	// outcome, a pure function of the module and the key; it dies with the
	// artifact.
	setups map[setupKey]*setup
}

// setupKey is what a job's campaign chain and scenario pass depend on
// besides the module: the ABI deployed with it, the chain personality and
// the per-action fuel. The ABI keys by pointer: the batch facade decodes
// content-identical ABI JSON into one value.
type setupKey struct {
	abi     *abi.ABI
	backend chain.Backend
	fuel    int64
}

// setup is an artifact's state for one key: a pristine campaign chain no
// job holds (nil while a job holds it), and the scenario outcome once a
// job's pass has run.
type setup struct {
	chain     *chain.Blockchain
	scenarios *scanner.ScenarioOutcome
}

// maxSetups bounds the keys an artifact keeps state for: one per (ABI,
// backend, fuel) the campaign fuzzes the module under. A job under a
// further key builds its chain and runs its scenario pass itself.
const maxSetups = 4

// NewArtifact instruments and compiles mod. The errors are those New
// returns for a module it cannot set up.
func NewArtifact(mod *wasm.Module) (*Artifact, error) {
	res, err := instrument.Instrument(mod, instrument.ModeSparse)
	if err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: instrument: %w", err))
	}
	// The campaign chain and the scenario chain of every job on the
	// artifact link their instances from this one compiled module.
	compiled, err := exec.Compile(res.Module)
	if err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: compile target: %w", err))
	}
	work.artifacts.Add(1)
	return &Artifact{
		mod:      mod,
		instr:    res,
		compiled: compiled,
		replays:  replayCache{limit: maxReplayCacheEvents},
	}, nil
}

// keyOf returns the setup key of a job, and false when its backend value
// cannot be compared: such a job shares nothing with other jobs.
func keyOf(contractABI *abi.ABI, backend chain.Backend, fuel int64) (setupKey, bool) {
	return setupKey{abi: contractABI, backend: backend, fuel: fuel}, reflect.ValueOf(backend).Comparable()
}

// state returns the artifact's setup for k, adding it when there is room,
// or nil. The caller holds a.mu.
func (a *Artifact) state(k setupKey) *setup {
	s := a.setups[k]
	if s == nil && len(a.setups) < maxSetups {
		if a.setups == nil {
			a.setups = map[setupKey]*setup{}
		}
		s = &setup{}
		a.setups[k] = s
	}
	return s
}

// borrowChain takes the artifact's pristine campaign chain for k, or
// builds one when no job has returned one yet or another job holds it.
func (a *Artifact) borrowChain(k setupKey, shared bool) (*chain.Blockchain, error) {
	if shared {
		a.mu.Lock()
		s := a.setups[k]
		var bc *chain.Blockchain
		if s != nil {
			bc, s.chain = s.chain, nil
		}
		a.mu.Unlock()
		if bc != nil {
			return bc, nil
		}
	}
	return a.newChain(k)
}

// returnChain gives back a borrowed chain, rolled back to the state
// newChain built. The artifact keeps one chain per key.
func (a *Artifact) returnChain(k setupKey, bc *chain.Blockchain) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s := a.state(k); s != nil && s.chain == nil {
		s.chain = bc
	}
}

// newChain initiates the local blockchain of Algorithm 1 line 2 with the
// instrumented target and the auxiliary contracts (eosio.token, the
// counterfeit token, the notification-forwarding agent), and funds the
// accounts. No fault is armed: issuing funds runs no Wasm.
func (a *Artifact) newChain(k setupKey) (*chain.Blockchain, error) {
	work.chains.Add(1)
	bc := chain.NewWithBackend(k.backend)
	bc.Collector = trace.NewCollector()
	bc.Fuel = k.fuel
	if err := bc.DeployModule(victimName, a.compiled, k.abi, a.instr.Sites); err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: deploy target: %w", err))
	}
	bc.DeployNative(fakeTokenName, &chain.TokenContract{Issuer: fakeTokenName, Sym: eos.EOSSymbol}, abi.TransferABI())
	bc.DeployNative(agentName, &chain.ForwarderAgent{Victim: victimName}, nil)
	bc.CreateAccount(attackerName)
	if err := bc.Issue(eos.TokenContract, attackerName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: fund attacker: %w", err)
	}
	// "We allocate some EOS tokens to the fuzzing target" (§4.4).
	if err := bc.Issue(eos.TokenContract, victimName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: fund target: %w", err)
	}
	if err := bc.Issue(fakeTokenName, attackerName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: fund attacker with counterfeit EOS: %w", err)
	}
	return bc, nil
}

// scenarios returns the scenario outcome a job under k recorded.
func (a *Artifact) scenarios(k setupKey) (scanner.ScenarioOutcome, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s := a.setups[k]; s != nil && s.scenarios != nil {
		return *s.scenarios, true
	}
	return scanner.ScenarioOutcome{}, false
}

// recordScenarios keeps the outcome of a scenario pass run under k.
func (a *Artifact) recordScenarios(k setupKey, o scanner.ScenarioOutcome) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s := a.state(k); s != nil && s.scenarios == nil {
		s.scenarios = &o
	}
}

// work totals, over the process, the artifacts built, the Symback replays
// run, the scenario passes run and the campaign chains built. Nothing
// reads them back into an analysis.
var work struct{ artifacts, replays, scenarios, chains atomic.Int64 }

// Work returns how many artifacts NewArtifact has built, how many Symback
// replays fuzzers have run, how many scenario passes they have run and
// how many campaign chains they have built in this process. Tests take
// differences of it around one campaign.
func Work() (artifacts, replays, scenarios, chains int64) {
	return work.artifacts.Load(), work.replays.Load(), work.scenarios.Load(), work.chains.Load()
}
