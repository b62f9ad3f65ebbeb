package fuzz

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/scanner"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
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
