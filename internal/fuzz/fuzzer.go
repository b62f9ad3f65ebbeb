package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/scanner"
	"repro/internal/schedule"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// Well-known campaign accounts.
var (
	attackerName  = eos.MustName("attacker")
	fakeTokenName = eos.MustName("fake.token")
	agentName     = eos.MustName("fake.notif")
	victimName    = eos.MustName("victim")
)

// Config tunes a fuzzing campaign.
type Config struct {
	// Iterations is the transaction budget (the deterministic analogue of
	// the paper's 5-minute timeout).
	Iterations int
	// SolverConflicts bounds each SMT query (analogue of the 3,000 ms cap).
	SolverConflicts int64
	// DisableFeedback turns off the Symback loop (ablation: pure black-box).
	DisableFeedback bool
	// DisableDBG turns off transaction-dependency seed selection (ablation).
	DisableDBG bool
	// OpaqueInputs disables §3.4.2 input inference in the replay (ablation:
	// path constraints lose their mapping to the transaction payload).
	OpaqueInputs bool
	// Seed drives all randomness.
	Seed int64
	// CustomDetectors registers extension oracles (paper §5): each observes
	// every target trace and contributes a named verdict to the result.
	CustomDetectors []scanner.CustomDetector
	// KeepTraces retains every target trace in the result, for export to
	// the paper's offline trace files (trace.Write).
	KeepTraces bool
	// Fuel overrides the per-action instruction budget of the campaign
	// chain (0 keeps the chain default).
	Fuel int64
	// Faults, when non-nil, injects the planned fault into the campaign
	// chain's host API and the solver pool (see internal/faultinject). A
	// transaction error chaining to faultinject.ErrInjected escalates to a
	// campaign failure — ordinary contract reverts are fuzzing signal and
	// never do.
	Faults *faultinject.Injector
	// Memo is the cross-job solver-query cache consulted before DPLL
	// (see internal/memo; nil disables memoization). The solver pool
	// ignores it whenever Faults is non-nil, so faulted attempts can
	// neither poison nor be served from a shared cache.
	Memo symbolic.SolverMemo
	// Deprecated: has no effect. The incremental solver pre-pass was
	// removed; every flip query goes to the fresh solver pool.
	Incremental bool
	// Deprecated: has no effect. Every chain runs the decoded-IR
	// execution engine (exec.NewFastVM).
	FastVM bool
	// Backend selects the chain personality (host-API surface, bootstrap
	// accounts, API classification) the campaign and scenario chains run
	// on. Nil means chain.EOSIO(), the default personality.
	Backend chain.Backend
	// Adaptive replaces the fixed round-robin schedule with the
	// coverage-driven power schedule of internal/schedule: payload arms and
	// queued seeds carry energies updated from coverage deltas, DBG
	// writer→reader pairs become composite arms, and the loop stops early
	// at saturation (no new coverage over SaturationWindow iterations) so
	// the campaign fuel ledger can reallocate the unspent budget. Every
	// decision is a pure function of (seed, observed coverage), so adaptive
	// runs stay reproducible; Adaptive=false is byte-identical to the
	// historical schedule.
	Adaptive bool
	// SaturationWindow is the adaptive saturation horizon in iterations
	// (0 means DefaultSaturationWindow). Ignored unless Adaptive.
	SaturationWindow int
}

// DefaultSaturationWindow is the default adaptive saturation horizon: a job
// with no new branch over this many consecutive iterations stops and
// returns its remaining fuel. A multiple of the schedule length, so every
// payload kind gets several shots before the job is declared saturated.
const DefaultSaturationWindow = 48

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{Iterations: 240, SolverConflicts: 50_000, Seed: 1}
}

// CoveragePoint samples cumulative distinct-branch coverage (RQ1's unit).
type CoveragePoint struct {
	Iteration int
	Branches  int
}

// Result summarizes a campaign.
type Result struct {
	Report           *scanner.Report
	Coverage         int
	CoverageOverTime []CoveragePoint
	Iterations       int
	// AdaptiveSeeds counts seeds produced by constraint solving.
	AdaptiveSeeds int
	// ReplayErrors counts traces Symback could not replay.
	ReplayErrors int
	SolverStats  symbolic.SolverStats
	// Custom holds the verdicts of registered extension detectors.
	Custom map[string]bool
	// Traces holds the target's traces when Config.KeepTraces is set.
	Traces []trace.Trace
	// Sched holds the adaptive scheduler's counters (zero when Adaptive
	// is off). Reporting-only: excluded from findings digests, included in
	// the campaign state digest like coverage.
	Sched schedule.Counters
	// Saturated reports that the adaptive loop stopped early for lack of
	// new coverage.
	Saturated bool
}

// ExpandCoverage reconstructs the dense per-iteration coverage series from
// the change-point encoding of CoverageOverTime: the value at iteration i
// (1-based) is the latest recorded point at or before i, zero before the
// first point. This is exactly the series the fuzzer used to record
// eagerly, so consumers plotting coverage curves stay equivalent.
func ExpandCoverage(points []CoveragePoint, iterations int) []int {
	dense := make([]int, iterations)
	cur, pi := 0, 0
	for i := 1; i <= iterations; i++ {
		for pi < len(points) && points[pi].Iteration <= i {
			cur = points[pi].Branches
			pi++
		}
		dense[i-1] = cur
	}
	return dense
}

// Fuzzer is the WASAI engine bound to one target contract.
type Fuzzer struct {
	cfg  Config
	art  *Artifact // the target's instrumented and compiled forms
	abi  *abi.ABI
	bc   *chain.Blockchain
	scan *scanner.Scanner
	// session is the chain session the job runs in: Finish rolls it back
	// and, when the setup key is shared, gives bc back to the artifact.
	session *chain.Session
	key     setupKey
	shared  bool
	rng     *rand.Rand
	solver  *symbolic.Solver
	dbg     *DBG
	seeds   *pool
	actions []eos.Name

	ctx context.Context // the campaign context while RunContext is active

	coverage  map[trace.BranchKey]struct{}
	attempted map[symexec.BranchTarget]bool
	covSeries []CoveragePoint
	adaptive  int
	replayErr int
	iter      int

	// replayer runs every Symback replay of the job, and the artifact's
	// replay cache skips those whose effect is already known (see
	// feedback); Finish drops the replayer and the artifact. skipHook, set
	// only by tests, sees every skipped replay, and recycleHook every trace
	// buffer handed back to the collector.
	replayer    *symexec.Replayer
	skipHook    func(tr *trace.Trace, params []symexec.Param, cached *replayEntry)
	recycleHook func(events []trace.Event)

	// Phase/adaptive state (see RunPhase): the iteration budget grows via
	// ContinuePhase grants, the planner drives arm selection when
	// Config.Adaptive, and lastSeed/seedUpdates carry the served seed slot
	// from step to the energy update after it.
	budget      int
	started     bool
	finished    bool
	saturated   bool
	lastGain    int
	planner     *schedule.Planner
	arms        []scheduleEntry
	seedUpdates int
	lastSeed    seedRef

	lastRevertRead map[eos.Name]chain.DBOp // action -> the failing read (table + key)
	kept           []trace.Trace

	// scratch is rebuilt by every transaction and valid only until the
	// next one (see transact).
	scratch struct {
		params  []symexec.Param
		payload []byte
		act     [1]chain.Action
		auth    [1]chain.PermissionLevel
		victim  []trace.Trace
		own     []trace.Trace
	}
}

// seedRef points at the queue slot a step served, so the adaptive loop can
// feed the step's coverage outcome back into that seed's energy.
type seedRef struct {
	q   *seedQueue
	pos int
	gen uint32
	ok  bool
}

// New prepares a campaign against the contract `mod` with its ABI on an
// artifact of its own: it instruments the bytecode (§3.3.1) and compiles
// it, then sets the campaign up as NewFrom does. A caller fuzzing one
// module in several jobs builds the Artifact once and calls NewFrom.
func New(mod *wasm.Module, contractABI *abi.ABI, cfg Config) (*Fuzzer, error) {
	a, err := NewArtifact(mod)
	if err != nil {
		return nil, err
	}
	return NewFrom(a, contractABI, cfg)
}

// NewFrom prepares a campaign against the artifact's contract with its
// ABI, on the local blockchain of Algorithm 1 line 2 with the instrumented
// target and the auxiliary contracts (eosio.token, the counterfeit token,
// the notification-forwarding agent) deployed and the accounts funded. It
// borrows that chain from the artifact when an earlier job on the same
// setup has given it back, and builds it otherwise; the job runs in a
// chain session that Finish rolls back. The fuzzer reads the artifact and
// records its replay outcomes there; the findings are those of New on the
// artifact's module.
func NewFrom(a *Artifact, contractABI *abi.ABI, cfg Config) (*Fuzzer, error) {
	backend := cfg.Backend
	if backend == nil {
		backend = chain.EOSIO()
	}
	fuel := cfg.Fuel
	if fuel <= 0 {
		fuel = exec.DefaultFuel
	}
	key, shared := keyOf(contractABI, backend, fuel)
	bc, err := a.borrowChain(key, shared)
	if err != nil {
		return nil, err
	}
	session := bc.Begin()
	// Faults model runtime host failures of this job, not broken setup.
	bc.Faults = cfg.Faults

	f := &Fuzzer{
		cfg:            cfg,
		art:            a,
		abi:            contractABI,
		bc:             bc,
		scan:           scanner.New(a.mod, victimName),
		session:        session,
		key:            key,
		shared:         shared,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		solver:         &symbolic.Solver{MaxConflicts: cfg.SolverConflicts},
		dbg:            NewDBG(),
		seeds:          newPool(),
		coverage:       map[trace.BranchKey]struct{}{},
		attempted:      map[symexec.BranchTarget]bool{},
		replayer:       symexec.NewReplayer(a.mod),
		lastRevertRead: map[eos.Name]chain.DBOp{},
	}
	for _, act := range contractABI.Actions {
		f.actions = append(f.actions, act.Name)
	}
	for _, d := range cfg.CustomDetectors {
		f.scan.AddCustom(d)
	}
	// Algorithm 1 line 2: fill seeds with random data.
	wellKnown := []eos.Name{attackerName, victimName, agentName, eos.MustName("bob")}
	for _, act := range f.actions {
		for i := 0; i < 4; i++ {
			f.seeds.queue(act).push(Seed{Action: act, Params: randomParams(f.rng, wellKnown)})
		}
	}
	return f, nil
}

// payloadKind enumerates the transaction shapes Engine schedules: the
// adversary-oracle payloads of §2.3 plus direct action fuzzing.
type payloadKind int

const (
	payloadValidTransfer  payloadKind = iota + 1 // genuine EOS to the target
	payloadDirectFake                            // invoke eosponser directly
	payloadFakeToken                             // counterfeit EOS via fake.token
	payloadForwardedNotif                        // real EOS through fake.notif
	payloadDirectAction                          // invoke a non-transfer action
	payloadComposite                             // DBG writer→reader pair (adaptive only)
)

// Run executes the Algorithm 1 fuzzing loop for the configured budget and
// returns the campaign result.
func (f *Fuzzer) Run() (*Result, error) {
	return f.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// between iterations (each iteration is already bounded by the chain's fuel
// budget), so a per-job deadline interrupts even a contract that spins the
// interpreter on every transaction. On cancellation the context's error is
// returned and the partial campaign is discarded.
func (f *Fuzzer) RunContext(ctx context.Context) (*Result, error) {
	if _, err := f.RunPhase(ctx); err != nil {
		return nil, err
	}
	return f.Finish(ctx)
}

// PhaseReport summarises a fuzzing phase for the campaign fuel ledger.
type PhaseReport struct {
	// Saturated reports the adaptive early stop (no new coverage over the
	// saturation window).
	Saturated bool
	// Iterations is the iteration count executed so far.
	Iterations int
	// Coverage is the distinct-branch count so far.
	Coverage int
	// FuelUnspent is the budget the phase left unexecuted (saturation).
	FuelUnspent int
}

// RunPhase executes the Algorithm 1 fuzzing loop for the configured budget
// — the whole budget when Adaptive is off, or until saturation when on —
// and reports what it spent. The campaign may then grant extra budget with
// ContinuePhase; Finish runs the scenario pass and builds the Result.
func (f *Fuzzer) RunPhase(ctx context.Context) (PhaseReport, error) {
	if !f.started {
		f.started = true
		f.budget = f.cfg.Iterations
		f.arms = f.buildSchedule()
		if f.cfg.Adaptive {
			f.planner = schedule.NewPlanner()
			for _, e := range f.arms {
				f.planner.AddArm(int(e.kind), uint64(e.action), uint64(e.writer), schedule.BaseEnergy)
			}
		}
	}
	if err := f.runLoop(ctx); err != nil {
		return PhaseReport{}, err
	}
	return f.phaseReport(), nil
}

// ContinuePhase extends the iteration budget by a fuel-ledger grant and
// resumes the loop: the fuzzer keeps its coverage, seed energies, DBG and
// scanner state, so the extra fuel continues the same campaign rather than
// restarting one. A phase-2 saturation just leaves the remainder unspent.
func (f *Fuzzer) ContinuePhase(ctx context.Context, extra int) (PhaseReport, error) {
	f.budget += extra
	f.saturated = false
	// Grant a fresh saturation window measured from here, not from the
	// last gain: the grant is a deliberate second chance.
	f.lastGain = f.iter
	if err := f.runLoop(ctx); err != nil {
		return PhaseReport{}, err
	}
	return f.phaseReport(), nil
}

func (f *Fuzzer) phaseReport() PhaseReport {
	return PhaseReport{
		Saturated:   f.saturated,
		Iterations:  f.iter,
		Coverage:    len(f.coverage),
		FuelUnspent: f.budget - f.iter,
	}
}

// runLoop spends budgeted iterations. Adaptive=off walks the fixed
// round-robin exactly as before; Adaptive=on draws arms from the power
// schedule and feeds coverage deltas back into arm and seed energies.
func (f *Fuzzer) runLoop(ctx context.Context) error {
	if f.finished {
		return fmt.Errorf("fuzz: phase after Finish") //wasai:rawerr API-misuse guard, never reached by the drivers
	}
	f.ctx = ctx
	defer func() { f.ctx = nil }()
	window := f.cfg.SaturationWindow
	if window <= 0 {
		window = DefaultSaturationWindow
	}
	for ; f.iter < f.budget; f.iter++ {
		if err := ctx.Err(); err != nil {
			return failure.Wrap(failure.Timeout, err)
		}
		if f.cfg.Adaptive && f.iter-f.lastGain >= window {
			f.saturated = true
			f.planner.SaturationSkipped(f.budget - f.iter)
			break
		}
		before := len(f.coverage)
		if f.cfg.Adaptive {
			arm := f.planner.Next()
			entry := f.arms[arm]
			if err := f.stepArm(entry); err != nil {
				return err
			}
			gained := len(f.coverage) > before
			f.planner.Observe(arm, gained)
			if f.lastSeed.ok {
				f.seedUpdates += f.lastSeed.q.observe(f.lastSeed.pos, f.lastSeed.gen, gained)
				f.lastSeed = seedRef{}
			}
		} else {
			entry := f.arms[f.iter%len(f.arms)]
			if err := f.step(entry.kind, entry.action); err != nil {
				return err
			}
		}
		if len(f.coverage) > before {
			f.lastGain = f.iter
		}
		// Change-point coverage recording: O(distinct deltas) memory
		// instead of O(iterations); ExpandCoverage reconstructs the dense
		// series for curve consumers.
		if len(f.coverage) != before {
			f.covSeries = append(f.covSeries, CoveragePoint{Iteration: f.iter + 1, Branches: len(f.coverage)})
		}
	}
	return nil
}

// Finish runs the on-chain-data scenario pass (WACANA's multi-transaction
// families: deterministic scripts, each replayed from the pristine state
// of one scenario chain, feeding only the scenario oracles — the concolic
// loop's verdicts are already final) and assembles the campaign Result.
func (f *Fuzzer) Finish(ctx context.Context) (*Result, error) {
	if f.finished {
		return nil, fmt.Errorf("fuzz: Finish called twice") //wasai:rawerr API-misuse guard, never reached by the drivers
	}
	f.finished = true
	// A Fuzzer can outlive its job: the adaptive campaign holds every job's
	// fuzzer until the whole batch ends. So it lets go of its replayer, its
	// chain and its artifact, with the replay outcomes, once the scenario
	// pass is done.
	defer func() { f.replayer, f.art, f.bc = nil, nil, nil }()
	// Close the change-point series with a final sample so the series
	// records how long the campaign ran.
	if n := len(f.covSeries); f.iter > 0 && (n == 0 || f.covSeries[n-1].Iteration != f.iter) {
		f.covSeries = append(f.covSeries, CoveragePoint{Iteration: f.iter, Branches: len(f.coverage)})
	}
	if err := f.runScenarios(ctx); err != nil {
		return nil, err
	}
	// The job is done with the campaign chain: it goes back to the
	// artifact as newChain built it, for the next job on the setup.
	f.session.Rollback()
	f.bc.Faults = nil
	if f.shared {
		f.art.returnChain(f.key, f.bc)
	}
	var sched schedule.Counters
	if f.planner != nil {
		sched = f.planner.Counters()
		sched.EnergyUpdates += f.seedUpdates
	}
	return &Result{
		Report:           f.scan.Report(),
		Coverage:         len(f.coverage),
		CoverageOverTime: f.covSeries,
		Iterations:       f.iter,
		AdaptiveSeeds:    f.adaptive,
		ReplayErrors:     f.replayErr,
		SolverStats:      f.solver.Stats,
		Custom:           f.scan.CustomResults(),
		Traces:           f.kept,
		Sched:            sched,
		Saturated:        f.saturated,
	}, nil
}

type scheduleEntry struct {
	kind   payloadKind
	action eos.Name
	// writer is set on composite arms only: the table-writing action the
	// arm schedules immediately before `action` (DBG sequence mutation).
	writer eos.Name
}

func (f *Fuzzer) buildSchedule() []scheduleEntry {
	sched := []scheduleEntry{
		{kind: payloadValidTransfer},
		{kind: payloadDirectFake},
		{kind: payloadFakeToken},
		{kind: payloadForwardedNotif},
	}
	for _, act := range f.actions {
		if act != eos.ActionTransfer {
			sched = append(sched, scheduleEntry{kind: payloadDirectAction, action: act})
		}
	}
	return sched
}

// stepArm dispatches one adaptive arm: plain payload arms reuse step;
// composite arms run the writer→reader pair.
func (f *Fuzzer) stepArm(entry scheduleEntry) error {
	if entry.kind == payloadComposite {
		return f.stepComposite(entry.action, entry.writer)
	}
	return f.step(entry.kind, entry.action)
}

// stepComposite is the DBG-aware sequence mutation: run a writer of a table
// the reader depends on, then the reader, as one scheduled unit — dependent
// transactions are explored together instead of waiting for the reader to
// revert first.
func (f *Fuzzer) stepComposite(reader, writer eos.Name) error {
	seed, pos, gen, ok := f.seeds.queue(reader).nextWeighted()
	if !ok {
		seed = Seed{Action: reader, Params: randomParams(f.rng, []eos.Name{attackerName, victimName})}
	} else {
		f.lastSeed = seedRef{q: f.seeds.queue(reader), pos: pos, gen: gen, ok: true}
	}
	dep := seed.clone()
	dep.Action = writer
	// Fine-grained mode: steer the writer's key parameter to the exact key
	// the reader last failed on, when one was observed.
	if readOp, failed := f.lastRevertRead[reader]; failed {
		if pi, ok := f.dbg.KeyParam(readOp.Table, writer); ok && pi < len(dep.Params) {
			dep.Params[pi].U64 = readOp.Key
		}
	}
	if _, err := f.transact(payloadDirectAction, dep); err != nil {
		return err
	}
	if _, err := f.transact(payloadDirectAction, seed); err != nil {
		return err
	}
	f.planner.CompositeFired()
	return nil
}

// step runs one fuzzing iteration: select a seed, execute, scan, feed back.
func (f *Fuzzer) step(kind payloadKind, action eos.Name) error {
	if kind != payloadDirectAction {
		action = eos.ActionTransfer
	}
	var seed Seed
	var ok bool
	if f.cfg.Adaptive {
		var pos int
		var gen uint32
		seed, pos, gen, ok = f.seeds.queue(action).nextWeighted()
		if ok {
			f.lastSeed = seedRef{q: f.seeds.queue(action), pos: pos, gen: gen, ok: true}
		}
	} else {
		seed, ok = f.seeds.queue(action).next()
	}
	if !ok {
		seed = Seed{Action: action, Params: randomParams(f.rng, []eos.Name{attackerName, victimName})}
	}

	reverted, err := f.transact(kind, seed)
	if err != nil {
		return err
	}

	// Transaction-dependency resolution (§3.3.2): when a direct action
	// reverts after reading a table, run a writer of that table with the
	// same parameters (so the row keys match) and retry the seed in the
	// same round.
	if !f.cfg.DisableDBG && kind == payloadDirectAction && reverted {
		if readOp, failed := f.lastRevertRead[action]; failed {
			tb := readOp.Table
			if writer, ok := f.dbg.WriterFor(tb, action); ok {
				// A discovered dependency becomes a composite arm: the
				// adaptive schedule keeps exploring the writer→reader pair
				// on its own energy instead of waiting for another revert.
				if f.cfg.Adaptive && !f.planner.HasArm(int(payloadComposite), uint64(action), uint64(writer)) {
					f.arms = append(f.arms, scheduleEntry{kind: payloadComposite, action: action, writer: writer})
					f.planner.AddArm(int(payloadComposite), uint64(action), uint64(writer), 2*schedule.BaseEnergy)
				}
				dep := seed.clone()
				dep.Action = writer
				// Fine-grained mode: steer the writer's key parameter to
				// the exact key the reader needed.
				if pi, ok := f.dbg.KeyParam(tb, writer); ok && pi < len(dep.Params) {
					dep.Params[pi].U64 = readOp.Key
				}
				if _, err := f.transact(payloadDirectAction, dep); err != nil {
					return err
				}
				delete(f.lastRevertRead, action)
				if _, err := f.transact(kind, seed); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// transact runs one transaction of the seed, feeds its receipt back, with
// the seed's effective parameters computed once for both, and reports
// whether it reverted. The parameters, the payload, the action and the
// victim-trace lists live in f.scratch, and the receipt goes back to the
// chain with Recycle: nothing of one transaction outlives transact except
// what observe copies.
func (f *Fuzzer) transact(kind payloadKind, seed Seed) (bool, error) {
	params := f.effectiveParams(kind, seed)
	rcpt, err := f.execute(kind, seed, params)
	if err != nil {
		return false, err
	}
	err = f.observe(kind, seed, params, rcpt)
	reverted := rcpt.Reverted()
	f.bc.Recycle(rcpt)
	return reverted, err
}

// execute materializes the payload transaction for the seed's effective
// parameters and pushes it.
func (f *Fuzzer) execute(kind payloadKind, seed Seed, params []symexec.Param) (*chain.Receipt, error) {
	// Cancellation checkpoint: one step can push several transactions (the
	// DBG dependency dance), so the per-iteration check in RunContext alone
	// would let a timed-out job finish the whole dance first.
	if f.ctx != nil {
		if err := f.ctx.Err(); err != nil {
			return nil, failure.Wrap(failure.Timeout, err)
		}
	}
	sc := &f.scratch
	sc.payload = chain.AppendTransfer(sc.payload[:0],
		eos.Name(params[0].U64), eos.Name(params[1].U64),
		eos.Asset{Amount: int64(params[2].Amount), Symbol: eos.Symbol(params[2].Symbol)},
		params[3].Str)
	act := chain.Action{Account: victimName, Name: eos.ActionTransfer, Data: sc.payload}
	switch kind {
	case payloadValidTransfer, payloadForwardedNotif:
		act.Account = eos.TokenContract
	case payloadFakeToken:
		act.Account = fakeTokenName
	case payloadDirectAction:
		act.Name = seed.Action
	}
	signer := eos.Name(params[0].U64)
	// The fuzzer holds the keys of accounts it invents: ensure the signer
	// exists so authorization can be granted.
	f.bc.CreateAccount(signer)
	sc.auth[0] = chain.PermissionLevel{Actor: signer, Permission: eos.ActiveAuth}
	act.Authorization = sc.auth[:]
	sc.act[0] = act
	rcpt := f.bc.PushTransaction(chain.Transaction{Actions: sc.act[:]})
	// Escalate injected faults to campaign level. Ordinary reverts — asserts,
	// missing rows, bad auth — are the signal the oracles feed on and stay in
	// the receipt; only errors chaining to the injection sentinel mean the
	// infrastructure (not the contract) failed.
	if rcpt.Err != nil && errors.Is(rcpt.Err, faultinject.ErrInjected) {
		return nil, fmt.Errorf("fuzz: iteration %d: %w", f.iter, rcpt.Err)
	}
	return rcpt, nil
}

// effectiveParams constrains the seed to what the payload shape fixes: real
// token transfers are always attacker -> target/agent with a positive
// amount; direct invocations are fully seed-controlled. The parameters
// are a shallow copy of the seed's in f.scratch, valid until the next
// call: only scalar fields are written, so the string bytes they share
// with the seed are never changed, and whatever keeps parameters copies
// them (ApplyModel copies what it changes, and elitism clones the seed).
func (f *Fuzzer) effectiveParams(kind payloadKind, seed Seed) []symexec.Param {
	params := append(f.scratch.params[:0], seed.Params...)
	f.scratch.params = params
	switch kind {
	case payloadValidTransfer, payloadFakeToken:
		params[0].U64 = uint64(attackerName)
		params[1].U64 = uint64(victimName)
		params[2].Symbol = uint64(eos.EOSSymbol)
		params[2].Amount = clampAmount(params[2].Amount)
	case payloadForwardedNotif:
		params[0].U64 = uint64(attackerName)
		params[1].U64 = uint64(agentName)
		params[2].Symbol = uint64(eos.EOSSymbol)
		params[2].Amount = clampAmount(params[2].Amount)
	}
	return params
}

func clampAmount(a uint64) uint64 {
	if a == 0 || int64(a) <= 0 {
		return 1
	}
	if a > 1_000_000_000 {
		return 1_000_000_000
	}
	return a
}

// observe updates the scanner, the coverage map, the DBG and the feedback
// loop from one receipt of the seed run with the effective parameters
// params, which it only reads. The only error source is the symbolic
// feedback stage (an injected solver starvation aborting the pool). It
// hands every target trace's event buffer back to the collector on
// return: whatever keeps a trace beyond observe copies its events.
func (f *Fuzzer) observe(kind payloadKind, seed Seed, params []symexec.Param, rcpt *chain.Receipt) error {
	victimTraces := f.scratch.victim[:0]
	for _, tr := range rcpt.Traces {
		if tr.Contract == victimName {
			victimTraces = append(victimTraces, tr)
		}
	}
	f.scratch.victim = victimTraces
	defer f.recycle(victimTraces)

	// Oracles (§3.5).
	switch kind {
	case payloadValidTransfer:
		for i := range victimTraces {
			f.scan.RecordEosponser(&victimTraces[i])
		}
	case payloadDirectFake, payloadFakeToken:
		for i := range victimTraces {
			f.scan.RecordEosponser(&victimTraces[i])
		}
		f.scan.ObserveFakeEOS(victimTraces)
	case payloadForwardedNotif:
		f.scan.ObserveFakeNotif(victimTraces, agentName)
	case payloadDirectAction:
		// Scope the MissAuth oracle to the invoked action's own trace:
		// inline/deferred payouts can notify the contract's eosponser in
		// the same receipt, and its bookkeeping writes are authorized by
		// the token transfer itself, not by permission APIs.
		own := f.scratch.own[:0]
		for i := range victimTraces {
			if victimTraces[i].Action == seed.Action {
				own = append(own, victimTraces[i])
			}
		}
		f.scratch.own = own
		f.scan.ObserveDirectAction(own)
	}
	f.scan.Observe(victimTraces)
	f.scan.ObserveCustom(victimTraces)
	if f.cfg.KeepTraces {
		for _, tr := range victimTraces {
			tr.Events = slices.Clone(tr.Events)
			f.kept = append(f.kept, tr)
		}
	}

	// Coverage (RQ1 unit: distinct branches of the fuzzing target only).
	gained := 0
	for i := range victimTraces {
		gained += victimTraces[i].AddBranches(f.coverage)
	}
	if gained > 0 {
		// New territory invalidates earlier flip failures: the same target
		// may now be reachable under a feasible prefix.
		clear(f.attempted)
		// Elitism: a seed that discovered coverage is re-queued at the
		// front so deeper, state-dependent behaviour behind its path (for
		// example the tapos lottery outcome) gets retried across blocks.
		f.seeds.queue(seed.Action).pushFront(seed.clone())
	}

	// DBG update + transaction-dependency bookkeeping. Writes also teach
	// the key-level index (paper §5 future work): which seed parameter the
	// written primary key tracks.
	var lastRead chain.DBOp
	read := false
	for _, op := range rcpt.DBOps {
		if op.Contract != victimName {
			continue
		}
		if op.Kind == chain.DBWrite {
			f.dbg.AddWrite(op.Table, op.Action)
			if op.Action == seed.Action {
				f.dbg.LearnKeyParam(op.Table, op.Action, op.Key, params)
			}
		} else {
			f.dbg.AddRead(op.Table, op.Action)
			lastRead, read = op, true
		}
	}
	if kind == payloadDirectAction {
		if rcpt.Reverted() && read {
			f.lastRevertRead[seed.Action] = lastRead
		} else if !rcpt.Reverted() {
			delete(f.lastRevertRead, seed.Action)
		}
	}

	// Symbolic feedback (§3.4): replay, flip, solve, mutate.
	if f.cfg.DisableFeedback {
		return nil
	}
	for i := range victimTraces {
		if err := f.feedback(seed, params, &victimTraces[i]); err != nil {
			return err
		}
	}
	return nil
}

// recycle hands the traces' event buffers back to the campaign chain's
// collector.
func (f *Fuzzer) recycle(traces []trace.Trace) {
	for _, tr := range traces {
		if f.recycleHook != nil {
			f.recycleHook(tr.Events)
		}
		f.bc.Collector.Recycle(tr.Events)
	}
}

// feedback replays one trace and turns unexplored flipped branches into
// adaptive seeds. A trace that a job on the artifact already replayed under
// the same parameter layout and options is not replayed again when the
// cached outcome settles the result: a replay error counts as it would, and
// flip targets that this job has all covered or attempted would have built
// an empty solver pool. Otherwise it replays.
func (f *Fuzzer) feedback(seed Seed, params []symexec.Param, tr *trace.Trace) error {
	fp := tr.Fingerprint()
	opaque := f.cfg.OpaqueInputs
	cached := f.art.replays.lookup(fp, tr, params, opaque)
	if cached != nil && (cached.err != nil || !slices.ContainsFunc(cached.targets, f.openTarget)) {
		if f.skipHook != nil {
			f.skipHook(tr, params, cached)
		}
		f.countReplayErr(cached.err)
		return nil
	}
	res, err := f.replay(tr, params)
	var queries []symexec.FlipQuery
	if err == nil {
		queries = symexec.FlipQueries(res)
	}
	if cached == nil {
		f.art.replays.insert(fp, tr, params, opaque, err, queries)
	}
	if err != nil {
		f.countReplayErr(err)
		return nil
	}
	// Collect the flip queries for unexplored, unattempted targets and
	// solve them in parallel (§3.4.4: "we collect the target constraints
	// together and solve them in parallel").
	var pool []symbolic.Query
	for _, q := range queries {
		if !f.openTarget(q.Target) {
			continue
		}
		f.attempted[q.Target] = true
		pool = append(pool, symbolic.Query{ID: len(pool), Constraints: q.Constraints})
	}
	if len(pool) == 0 {
		return nil
	}
	ctx := f.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	answers, stats, poolErr := symbolic.SolvePoolCtx(ctx, pool, symbolic.PoolOptions{
		MaxConflicts: f.cfg.SolverConflicts,
		Faults:       f.cfg.Faults,
		Memo:         f.cfg.Memo,
	})
	f.solver.Stats.Queries += stats.Queries
	f.solver.Stats.FastPathHits += stats.FastPathHits
	f.solver.Stats.SATCalls += stats.SATCalls
	f.solver.Stats.SATConflicts += stats.SATConflicts
	f.solver.Stats.Unknowns += stats.Unknowns
	f.solver.Stats.Propagations += stats.Propagations
	for _, a := range answers {
		if a.Result != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, a.Model)
		f.adaptive++
		f.seeds.queue(seed.Action).pushFront(Seed{Action: seed.Action, Params: mutated})
	}
	if poolErr != nil {
		return fmt.Errorf("fuzz: iteration %d: solver pool: %w", f.iter, poolErr)
	}
	return nil
}

// replay runs Symback over one trace of the target. The result is valid
// until the next replay.
func (f *Fuzzer) replay(tr *trace.Trace, params []symexec.Param) (*symexec.Result, error) {
	work.replays.Add(1)
	return symexec.Run(f.replayer, tr, params, symexec.Options{
		Globals:      map[uint32]uint64{0: uint64(victimName)},
		OpaqueInputs: f.cfg.OpaqueInputs,
	})
}

// countReplayErr counts a failed replay. Traces that revert inside the
// dispatcher (e.g. the Fake EOS guard firing) never reach an action
// function: there is nothing to flip there, and no error to count.
func (f *Fuzzer) countReplayErr(err error) {
	if err != nil && !errors.Is(err, symexec.ErrNoActionCall) {
		f.replayErr++
	}
}

// openTarget reports whether a flip target is still worth a solver query:
// neither covered nor already attempted. The solver pool and the replay
// cache's skip decision both use it, so a skip stays exact.
func (f *Fuzzer) openTarget(t symexec.BranchTarget) bool {
	if _, covered := f.coverage[trace.BranchKey{Func: t.Func, PC: t.PC, Dir: t.Dir}]; covered {
		return false
	}
	return !f.attempted[t]
}
