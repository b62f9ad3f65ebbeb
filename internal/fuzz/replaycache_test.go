package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// cacheCase is one campaign the replay-cache tests run.
type cacheCase struct {
	name string
	c    *contractgen.Contract
	cfg  Config
}

// replayCacheCorpus is a wild sample under the default config (a few of
// them adaptive), plus §4.3 verification samples of the five Table 6
// classes fuzzed as forks under distinct seeds.
func replayCacheCorpus(t *testing.T) []cacheCase {
	t.Helper()
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(14), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("GenerateWild: %v", err)
	}
	var cases []cacheCase
	for i, w := range wild {
		cfg := DefaultConfig()
		cfg.KeepTraces = true
		cfg.Adaptive = i%5 == 4
		cases = append(cases, cacheCase{name: fmt.Sprintf("wild-%d", i), c: w.Contract, cfg: cfg})
	}
	checks := [][]contractgen.VerCheck{
		{{Field: "amount", Value: 1_234_000}},
		{{Field: "symbol", Value: uint64(eos.EOSSymbol)}, {Field: "memo0", Value: 'k'}},
	}
	rng := rand.New(rand.NewSource(11))
	for i, class := range contractgen.Classes[:5] {
		for _, vul := range []bool{true, false} {
			spec := contractgen.RandomSpec(class, vul, rng)
			spec.Verification = checks[i%len(checks)]
			c, err := contractgen.Generate(spec)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			for fork := int64(1); fork <= 3; fork++ {
				cfg := DefaultConfig()
				cfg.KeepTraces = true
				cfg.Seed = fork
				cases = append(cases, cacheCase{name: fmt.Sprintf("%s-vul=%v-fork%d", class, vul, fork), c: c, cfg: cfg})
			}
		}
	}
	return cases
}

// runCase runs one campaign after prepare has set up the fuzzer's test
// hooks, and returns the fuzzer with its result.
func runCase(t *testing.T, tc cacheCase, prepare func(*Fuzzer)) (*Fuzzer, *Result) {
	t.Helper()
	f, err := New(tc.c.Module, tc.c.ABI, tc.cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", tc.name, err)
	}
	if prepare != nil {
		prepare(f)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("%s: Run: %v", tc.name, err)
	}
	return f, res
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (c *replayCache) entries() int {
	n := 0
	for _, b := range c.buckets {
		n += len(b)
	}
	return n
}

// TestReplayCacheSkipsAreExact replays anyway on every skip: the fresh
// replay must give the cached error and flip targets, and none of the
// targets may be open, so the real path would have built an empty solver
// pool. Each campaign must also equal a run with the cache off (limit 0,
// every replay runs), traces included.
func TestReplayCacheSkipsAreExact(t *testing.T) {
	skips := 0
	for _, tc := range replayCacheCorpus(t) {
		_, got := runCase(t, tc, func(f *Fuzzer) {
			f.skipHook = func(tr *trace.Trace, params []symexec.Param, cached *replayEntry) {
				skips++
				res, err := f.replay(tr, params)
				if errText(err) != errText(cached.err) {
					t.Errorf("%s: replay error %q, cached %q", tc.name, errText(err), errText(cached.err))
				}
				var targets []symexec.BranchTarget
				if err == nil {
					for _, q := range symexec.FlipQueries(res) {
						targets = append(targets, q.Target)
					}
				}
				if !slices.Equal(targets, cached.targets) {
					t.Errorf("%s: replay targets %v, cached %v", tc.name, targets, cached.targets)
				}
				if slices.ContainsFunc(targets, f.openTarget) {
					t.Errorf("%s: skipped a replay whose solver pool is not empty", tc.name)
				}
			}
		})
		_, want := runCase(t, tc, func(f *Fuzzer) { f.art.replays.limit = 0 })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result with the replay cache differs from the uncached run", tc.name)
		}
	}
	if skips == 0 {
		t.Fatal("no replay was skipped")
	}
}

// recordReveal executes one reveal transaction on a fresh fuzzer and returns
// the fuzzer, the seed, its effective parameters and the victim's trace.
func recordReveal(t *testing.T) (*Fuzzer, Seed, []symexec.Param, *trace.Trace) {
	t.Helper()
	c, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassRollback, Vulnerable: true,
		Branches: []contractgen.BranchCheck{{Field: "amount", Value: 424242}},
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	f, err := New(c.Module, c.ABI, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seed := Seed{Action: contractgen.ActionReveal, Params: []symexec.Param{
		{Type: "name", U64: uint64(attackerName)},
		{Type: "name", U64: uint64(victimName)},
		{Type: "asset", Amount: 100000, Symbol: uint64(eos.EOSSymbol)},
		{Type: "string", Str: []byte("memo")},
	}}
	params := f.effectiveParams(payloadDirectAction, seed)
	rcpt, err := f.execute(payloadDirectAction, seed, params)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	var tr *trace.Trace
	for i := range rcpt.Traces {
		if rcpt.Traces[i].Contract == victimName && rcpt.Traces[i].Action == seed.Action {
			tr = &rcpt.Traces[i]
		}
	}
	if tr == nil {
		t.Fatal("no victim trace")
	}
	return f, seed, params, tr
}

// TestReplayCacheNearMissesReplay: a trace differing from a cached one in a
// single event operand, or a seed differing only in memo length, is a
// different replay input. Each must miss, even when forced into the cached
// trace's bucket, and replay.
func TestReplayCacheNearMissesReplay(t *testing.T) {
	f, seed, params, tr := recordReveal(t)
	f.skipHook = func(*trace.Trace, []symexec.Param, *replayEntry) { t.Error("near miss skipped its replay") }
	fp := tr.Fingerprint()

	// replays feeds one trace back and reports whether it added an entry:
	// entries are added only after a replay ran.
	replays := func(tr *trace.Trace, params []symexec.Param) bool {
		t.Helper()
		n := f.art.replays.entries()
		if err := f.feedback(seed, params, tr); err != nil {
			t.Fatalf("feedback: %v", err)
		}
		return f.art.replays.entries() == n+1
	}
	if !replays(tr, params) {
		t.Fatal("first sighting was not replayed and cached")
	}
	if f.art.replays.lookup(fp, tr, params, false) == nil {
		t.Fatal("cached trace does not hit")
	}

	mem := slices.IndexFunc(tr.Events, func(ev trace.Event) bool { return ev.Kind == trace.HookMem })
	if mem < 0 {
		t.Fatal("trace has no memory event")
	}
	operand := *tr
	operand.Events = slices.Clone(tr.Events)
	operand.Events[mem].Operand++
	if f.art.replays.lookup(fp, &operand, params, false) != nil {
		t.Error("a trace differing in one Operand hit the cached trace's entry")
	}
	if !replays(&operand, params) {
		t.Error("a trace differing in one Operand was not replayed")
	}

	longer := slices.Clone(params)
	longer[3].Str = []byte("memo!")
	if f.art.replays.lookup(fp, tr, longer, false) != nil {
		t.Error("a longer memo hit the cached layout")
	}
	if !replays(tr, longer) {
		t.Error("a seed differing only in memo length was not replayed")
	}
}

// TestReplayCacheCountsCachedErrors: a repeated trace whose replay failed
// is skipped and still counts toward ReplayErrors, and a repeated trace
// without an action dispatch is skipped and still does not count. The
// benchmark populations never fail a replay, so the traces are cut by hand.
func TestReplayCacheCountsCachedErrors(t *testing.T) {
	f, seed, params, tr := recordReveal(t)
	skips := 0
	f.skipHook = func(*trace.Trace, []symexec.Param, *replayEntry) { skips++ }
	dispatch := slices.IndexFunc(tr.Events, func(ev trace.Event) bool {
		return ev.Kind == trace.HookCall && ev.Op == wasm.OpCallIndirect
	})
	if dispatch < 0 {
		t.Fatal("trace has no action dispatch")
	}
	// Up to and including the dispatch: the action's function_begin is
	// missing, so the replay fails.
	noBegin := trace.Trace{Contract: tr.Contract, Action: tr.Action, Events: slices.Clone(tr.Events[:dispatch+1])}
	// Before the dispatch: symexec.ErrNoActionCall, which is not an error.
	noCall := trace.Trace{Contract: tr.Contract, Action: tr.Action, Events: slices.Clone(tr.Events[:dispatch])}
	for round := 1; round <= 2; round++ {
		for _, cut := range []*trace.Trace{&noBegin, &noCall} {
			if err := f.feedback(seed, params, cut); err != nil {
				t.Fatalf("feedback: %v", err)
			}
		}
		if f.replayErr != round {
			t.Errorf("round %d: %d replay errors, want %d", round, f.replayErr, round)
		}
	}
	if skips != 2 {
		t.Errorf("%d skips, want the 2 repeats", skips)
	}
}

// TestFinishDropsReplayCache: the replayer lives for one job and the
// artifact with its replay cache for as long as its owner keeps it, so
// Finish drops both from the fuzzer, and a phase after Finish is refused.
func TestFinishDropsReplayCache(t *testing.T) {
	tc := replayCacheCorpus(t)[0]
	f, err := New(tc.c.Module, tc.c.ABI, tc.cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := f.RunPhase(context.Background()); err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if f.art.replays.entries() == 0 || f.art.replays.retained == 0 {
		t.Fatal("the campaign cached no replay")
	}
	if _, err := f.Finish(context.Background()); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if f.art != nil {
		t.Errorf("Finish kept the artifact: %d replay entries, %d events retained",
			f.art.replays.entries(), f.art.replays.retained)
	}
	if f.replayer != nil {
		t.Error("Finish kept the replayer")
	}
	if _, err := f.ContinuePhase(context.Background(), 1); err == nil {
		t.Error("a phase after Finish was not refused")
	}
}

// TestFullReplayCacheStartsOver: a cache that reaches its limit empties
// itself to take a new trace, never retains more than the limit, and the
// campaign result does not move.
func TestFullReplayCacheStartsOver(t *testing.T) {
	tc := replayCacheCorpus(t)[0]
	run := func(limit int) (*Result, *Artifact) {
		a, err := NewArtifact(tc.c.Module)
		if err != nil {
			t.Fatalf("NewArtifact: %v", err)
		}
		a.replays.limit = limit
		f, err := NewFrom(a, tc.c.ABI, tc.cfg)
		if err != nil {
			t.Fatalf("NewFrom: %v", err)
		}
		f.recycleHook = func([]trace.Event) {
			if a.replays.retained > limit {
				t.Errorf("cache retains %d events, limit %d", a.replays.retained, limit)
			}
		}
		res, err := f.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, a
	}
	want, full := run(maxReplayCacheEvents)
	limit := full.replays.retained / 3
	got, bounded := run(limit)
	c := &bounded.replays
	if c.entries() == 0 || c.entries() >= full.replays.entries() {
		t.Errorf("bounded cache has %d entries, unbounded %d", c.entries(), full.replays.entries())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a full replay cache changed the campaign result")
	}

	// A trace that does not fit beside what the cache holds replaces it.
	tr := &trace.Trace{Action: contractgen.ActionReveal, Events: make([]trace.Event, limit-c.retained+1)}
	c.insert(tr.Fingerprint(), tr, nil, false, nil, nil)
	if c.lookup(tr.Fingerprint(), tr, nil, false) == nil {
		t.Error("a full cache refused a new trace")
	}
	if c.retained != len(tr.Events) || c.entries() != 1 {
		t.Errorf("after starting over the cache holds %d entries and %d events, want 1 and %d",
			c.entries(), c.retained, len(tr.Events))
	}
}

// TestRecycledTraceBuffersArePoisonProof overwrites every trace buffer the
// fuzzer hands back to the collector, over its whole capacity, with junk
// events. With KeepTraces on and off, each campaign must give the result
// and the number of skipped replays of an unpoisoned run: nothing that
// outlives observe may alias a recycled buffer.
func TestRecycledTraceBuffersArePoisonProof(t *testing.T) {
	junk := trace.Event{Kind: trace.HookCond, Op: wasm.OpBrIf, Func: 1 << 30, PC: -1, Operand: 0xdead}
	poison := func(events []trace.Event) {
		events = events[:cap(events)]
		for i := range events {
			events[i] = junk
		}
	}
	recycled := 0
	for _, tc := range replayCacheCorpus(t) {
		for _, keep := range []bool{false, true} {
			tc.cfg.KeepTraces = keep
			run := func(poisoned bool) (*Result, int) {
				skips := 0
				_, res := runCase(t, tc, func(f *Fuzzer) {
					f.skipHook = func(*trace.Trace, []symexec.Param, *replayEntry) { skips++ }
					if poisoned {
						f.recycleHook = func(events []trace.Event) {
							recycled++
							poison(events)
						}
					}
				})
				return res, skips
			}
			want, wantSkips := run(false)
			got, gotSkips := run(true)
			if gotSkips != wantSkips {
				t.Errorf("%s keep=%v: %d skipped replays with poisoned buffers, %d without", tc.name, keep, gotSkips, wantSkips)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s keep=%v: poisoning recycled buffers changed the result", tc.name, keep)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no trace buffer was recycled")
	}
}
