package fuzz

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/scanner"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// artifactJobs returns the configurations of four jobs on one module:
// distinct seeds, one of them keeping its traces and one with a custom
// detector (built fresh on every call: detectors keep state).
func artifactJobs(mod *wasm.Module) []Config {
	var cfgs []Config
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		switch seed {
		case 2:
			cfg.KeepTraces = true
		case 3:
			cfg.CustomDetectors = []scanner.CustomDetector{
				scanner.NewAPICallDetector("DeferredUse", mod, "send_deferred"),
			}
		case 4:
			cfg.Adaptive = true
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// runOn runs one job on the artifact with its test hooks set by prepare.
func runOn(t *testing.T, a *Artifact, tc cacheCase, prepare func(*Fuzzer)) *Result {
	t.Helper()
	f, err := NewFrom(a, tc.c.ABI, tc.cfg)
	if err != nil {
		t.Fatalf("%s: NewFrom: %v", tc.name, err)
	}
	if prepare != nil {
		prepare(f)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("%s: Run: %v", tc.name, err)
	}
	return res
}

// uncached runs the job on an artifact of its own whose replay cache holds
// nothing, so every replay runs.
func uncached(t *testing.T, tc cacheCase) *Result {
	t.Helper()
	a, err := NewArtifact(tc.c.Module)
	if err != nil {
		t.Fatalf("%s: NewArtifact: %v", tc.name, err)
	}
	a.replays.limit = 0
	return runOn(t, a, tc, nil)
}

// requireExactSkips makes f replay anyway on every skip: the fresh replay
// must give the cached error and flip targets, and none of the targets may
// be open for this job, so the real path would have built an empty solver
// pool. It counts the skips.
func requireExactSkips(t *testing.T, name string, f *Fuzzer, skips *int) {
	f.skipHook = func(tr *trace.Trace, params []symexec.Param, cached *replayEntry) {
		*skips++
		res, err := f.replay(tr, params)
		if errText(err) != errText(cached.err) {
			t.Errorf("%s: replay error %q, cached %q", name, errText(err), errText(cached.err))
		}
		var targets []symexec.BranchTarget
		if err == nil {
			for _, q := range symexec.FlipQueries(res) {
				targets = append(targets, q.Target)
			}
		}
		if !slices.Equal(targets, cached.targets) {
			t.Errorf("%s: replay targets %v, cached %v", name, targets, cached.targets)
		}
		if slices.ContainsFunc(targets, f.openTarget) {
			t.Errorf("%s: skipped a replay whose solver pool is not empty", name)
		}
	}
}

// TestArtifactSkipsAreExactAcrossJobs is the cross-job form of
// TestReplayCacheSkipsAreExact: jobs under different seeds and options run
// one after another on one artifact, each skipping replays on what the
// earlier jobs recorded. Every skip must be exact, and every job's Result,
// traces and custom verdicts included, must equal its run on an artifact
// of its own with caching off.
func TestArtifactSkipsAreExactAcrossJobs(t *testing.T) {
	crossSkips := 0
	seen := map[string]bool{}
	for _, base := range replayCacheCorpus(t) {
		if seen[base.name[:len(base.name)-1]] {
			continue // the corpus forks each verification sample; one is enough
		}
		seen[base.name[:len(base.name)-1]] = true
		a, err := NewArtifact(base.c.Module)
		if err != nil {
			t.Fatalf("%s: NewArtifact: %v", base.name, err)
		}
		for i, cfg := range artifactJobs(base.c.Module) {
			tc := cacheCase{name: base.name, c: base.c, cfg: cfg}
			skips := 0
			got := runOn(t, a, tc, func(f *Fuzzer) { requireExactSkips(t, tc.name, f, &skips) })
			if i > 0 {
				crossSkips += skips
			}
			tc.cfg = artifactJobs(base.c.Module)[i]
			if want := uncached(t, tc); !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: result on the shared artifact differs from the uncached run", tc.name, cfg.Seed)
			}
		}
	}
	if crossSkips == 0 {
		t.Fatal("no later job skipped a replay")
	}
}

// TestArtifactKeysOnOpaqueInputs: OpaqueInputs changes what a replay
// builds, so it is part of the replay cache's key. A job with opaque
// inputs first fills the artifact with outcomes that have no flip targets;
// a job without them on the same artifact must not be served those
// outcomes, and must find what it finds alone.
func TestArtifactKeysOnOpaqueInputs(t *testing.T) {
	c, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassRollback, Vulnerable: true,
		Branches: []contractgen.BranchCheck{{Field: "amount", Value: 424242}},
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := NewArtifact(c.Module)
	if err != nil {
		t.Fatalf("NewArtifact: %v", err)
	}
	opaque := DefaultConfig()
	opaque.OpaqueInputs = true
	plain := DefaultConfig()
	for _, tc := range []cacheCase{{name: "opaque", c: c, cfg: opaque}, {name: "plain", c: c, cfg: plain}} {
		skips := 0
		got := runOn(t, a, tc, func(f *Fuzzer) { requireExactSkips(t, tc.name, f, &skips) })
		want := uncached(t, tc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result on the shared artifact differs from the uncached run", tc.name)
		}
		if tc.name == "plain" && want.AdaptiveSeeds == 0 {
			t.Error("the plain job solves no flip alone: the test shows nothing")
		}
	}
}

// TestFullArtifactCachesLaterJobs: once an earlier job has filled the
// artifact's replay cache, a later job on it still caches the traces the
// earlier one never saw, and its result does not move.
func TestFullArtifactCachesLaterJobs(t *testing.T) {
	tc := replayCacheCorpus(t)[0]
	a, err := NewArtifact(tc.c.Module)
	if err != nil {
		t.Fatalf("NewArtifact: %v", err)
	}
	runOn(t, a, tc, nil)
	a.replays.limit = a.replays.retained
	before := maps.Clone(a.replays.buckets)
	later := tc
	later.cfg.Seed = 7
	got := runOn(t, a, later, nil)
	fresh := 0 // events of the entries the earlier job did not record
	for fp, bucket := range a.replays.buckets {
		for i := range bucket {
			if !slices.ContainsFunc(before[fp], func(e replayEntry) bool {
				return slices.Equal(e.events, bucket[i].events) && slices.Equal(e.layout, bucket[i].layout)
			}) {
				fresh += len(bucket[i].events)
			}
		}
	}
	if fresh == 0 {
		t.Error("the later job cached none of its own traces in the full artifact")
	}
	if want := uncached(t, later); !reflect.DeepEqual(got, want) {
		t.Error("a full artifact changed the later job's result")
	}
}

// chainState renders what a job can observe of a campaign chain before
// its first transaction: the rows of the contracts the setup writes, the
// block state, and the code of the setup's accounts.
func chainState(bc *chain.Blockchain) string {
	var sb strings.Builder
	for _, name := range []eos.Name{eos.TokenContract, fakeTokenName, victimName, attackerName} {
		a := bc.Account(name)
		fmt.Fprintf(&sb, "%s code=%v,%p,%v,%T\n%s", name, a.HasCode(), a.Module, a.ABI != nil, a.Native, bc.DB().DumpContract(name))
	}
	fmt.Fprintf(&sb, "block %d %d %d faults %v\n", bc.BlockNum(), bc.TimeUs(), bc.TaposBlockPrefix(), bc.Faults != nil)
	return sb.String()
}

// TestArtifactSetupMatchesFreshChain: consecutive jobs on one artifact
// (plain, faulted, adaptive, keeping traces) borrow the artifact's campaign
// chain in turn and take the scenario outcome the first job recorded, and
// each returns what fuzz.New returns on a fresh chain. A job whose fault
// fires errs as New's job does and keeps its chain; a job whose fault
// never fires gives its chain back disarmed and as newChain built it.
func TestArtifactSetupMatchesFreshChain(t *testing.T) {
	c, err := contractgen.Generate(contractgen.RandomSpec(contractgen.ClassStateTamper, true, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := NewArtifact(c.Module)
	if err != nil {
		t.Fatalf("NewArtifact: %v", err)
	}
	fault := func(kind faultinject.Kind) *faultinject.Injector {
		return (&faultinject.Plan{Seed: 3, Rate: 1, Kinds: []faultinject.Kind{kind}}).For(0, 0)
	}
	jobs := []struct {
		name   string
		cfg    func() Config
		chains int64 // campaign chains NewFrom builds
	}{
		{"plain", func() Config { return Config{Iterations: 60, SolverConflicts: 1_000, Seed: 1} }, 1},
		{"faulted-error", func() Config {
			return Config{Iterations: 60, SolverConflicts: 1_000, Seed: 2, Faults: fault(faultinject.KindHostError)}
		}, 0},
		{"faulted-panic", func() Config {
			return Config{Iterations: 60, SolverConflicts: 1_000, Seed: 2, Faults: fault(faultinject.KindHostPanic)}
		}, 1},
		{"faulted-silent", func() Config {
			return Config{Iterations: 60, DisableFeedback: true, Seed: 3, Faults: fault(faultinject.KindSolverStarve)}
		}, 1},
		{"adaptive", func() Config {
			return Config{Iterations: 90, SolverConflicts: 1_000, Seed: 4, Adaptive: true, SaturationWindow: 16}
		}, 0},
		{"keep-traces", func() Config { return Config{Iterations: 60, SolverConflicts: 1_000, Seed: 5, KeepTraces: true} }, 0},
		{"plain-again", func() Config { return Config{Iterations: 60, SolverConflicts: 1_000, Seed: 1} }, 0},
	}
	fresh, err := a.newChain(setupKey{abi: c.ABI, backend: chain.EOSIO(), fuel: exec.DefaultFuel})
	if err != nil {
		t.Fatalf("newChain: %v", err)
	}
	pristine := chainState(fresh)
	scenarios := 0
	for _, j := range jobs {
		chains0, scenarios0 := work.chains.Load(), work.scenarios.Load()
		f, err := NewFrom(a, c.ABI, j.cfg())
		if err != nil {
			t.Fatalf("%s: NewFrom: %v", j.name, err)
		}
		if got := work.chains.Load() - chains0; got != j.chains {
			t.Errorf("%s: NewFrom built %d campaign chains, want %d", j.name, got, j.chains)
		}
		bc := f.bc
		got, gotErr := f.Run()
		scenarios += int(work.scenarios.Load() - scenarios0)
		ref, err := New(c.Module, c.ABI, j.cfg())
		if err != nil {
			t.Fatalf("%s: New: %v", j.name, err)
		}
		want, wantErr := ref.Run()
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: error %q on the artifact's chain, %q on a fresh one", j.name, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result on the artifact's chain differs from the result on a fresh one", j.name)
		}
		if faulted := strings.HasPrefix(j.name, "faulted-") && j.name != "faulted-silent"; faulted != (gotErr != nil) {
			t.Fatalf("%s: error %v", j.name, gotErr)
		}
		if gotErr == nil {
			if got.Iterations == 0 {
				t.Fatalf("%s: no iteration ran", j.name)
			}
			if s := chainState(bc); s != pristine {
				t.Errorf("%s: returned chain\n%s\nwant\n%s", j.name, s, pristine)
			}
		}
	}
	if scenarios != 1 {
		t.Errorf("%d scenario passes ran on the artifact, want 1", scenarios)
	}
}

// uncomparable is a backend whose value cannot be a map key: comparing
// two of them panics.
type uncomparable struct {
	chain.Backend
	tags []string
}

// TestArtifactSetupEdges: a job whose backend value cannot be compared
// shares no setup and does not panic, and a job whose artifact holds the
// scenario outcome still returns the timeout error when its context is
// cancelled before the pass.
func TestArtifactSetupEdges(t *testing.T) {
	c, err := contractgen.Generate(contractgen.RandomSpec(contractgen.ClassOrderDep, true, rand.New(rand.NewSource(9))))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := NewArtifact(c.Module)
	if err != nil {
		t.Fatalf("NewArtifact: %v", err)
	}
	cfg := Config{Iterations: 20, SolverConflicts: 1_000, Seed: 1, Backend: uncomparable{Backend: chain.EOSIO()}}
	for i := 0; i < 2; i++ {
		chains0, scenarios0 := work.chains.Load(), work.scenarios.Load()
		f, err := NewFrom(a, c.ABI, cfg)
		if err != nil {
			t.Fatalf("NewFrom: %v", err)
		}
		got, err := f.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if work.chains.Load()-chains0 != 1 || work.scenarios.Load()-scenarios0 != 1 {
			t.Fatalf("job %d with an uncomparable backend shared its chain or scenario outcome", i)
		}
		ref, err := New(c.Module, c.ABI, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if want, err := ref.Run(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d differs from a fresh run (%v)", i, err)
		}
	}
	if len(a.setups) != 0 {
		t.Fatalf("artifact kept %d setups for an uncomparable backend", len(a.setups))
	}

	plain := Config{Iterations: 20, SolverConflicts: 1_000, Seed: 1}
	f, err := NewFrom(a, c.ABI, plain)
	if err != nil {
		t.Fatalf("NewFrom: %v", err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := a.scenarios(f.key); !ok {
		t.Fatal("the first plain job recorded no scenario outcome")
	}
	g, err := NewFrom(a, c.ABI, plain)
	if err != nil {
		t.Fatalf("NewFrom: %v", err)
	}
	if _, err := g.RunPhase(context.Background()); err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Finish(ctx); failure.ClassOf(err) != failure.Timeout {
		t.Fatalf("Finish on a cancelled context: %v, want a timeout", err)
	}
}
