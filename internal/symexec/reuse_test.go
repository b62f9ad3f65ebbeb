package symexec_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/fuzz"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// namedContract is one contract of a test sequence.
type namedContract struct {
	name string
	c    *contractgen.Contract
}

// reuseContracts returns a wild sample, a §4.3 verification sample and an
// obfuscated contract.
func reuseContracts(t *testing.T) []namedContract {
	t.Helper()
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(6), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("GenerateWild: %v", err)
	}
	widest := wild[0].Contract
	for _, w := range wild {
		if len(w.Contract.ABI.Actions) > len(widest.ABI.Actions) {
			widest = w.Contract
		}
	}
	ver, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassFakeEOS, Vulnerable: true,
		Verification: []contractgen.VerCheck{
			{Field: "memo0", Value: 'q'},
			{Field: "amount", Value: 7770000},
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	obf, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassRollback, Vulnerable: true,
		Branches: []contractgen.BranchCheck{{Field: "from", Value: uint64(eos.MustName("luckyone"))}},
		Seed:     5,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if _, err := contractgen.Obfuscate(obf.Module, contractgen.ObfuscateOptions{Popcount: true, OpaqueRecursion: true}); err != nil {
		t.Fatalf("Obfuscate: %v", err)
	}
	return []namedContract{{"wild", widest}, {"verification", ver}, {"obfuscated", obf}}
}

// campaignTraces runs a short fuzzing campaign on c and returns the target
// traces it kept.
func campaignTraces(t *testing.T, c *contractgen.Contract) []trace.Trace {
	t.Helper()
	cfg := fuzz.DefaultConfig()
	cfg.Iterations = 24
	cfg.KeepTraces = true
	f, err := fuzz.New(c.Module, c.ABI, cfg)
	if err != nil {
		t.Fatalf("fuzz.New: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("fuzz.Run: %v", err)
	}
	return res.Traces
}

// replayOutcome is everything of a replay that its consumers read.
type replayOutcome struct {
	Err         string
	Truncated   bool
	Steps       int
	LoadObjects int
	Targets     []symexec.BranchTarget
	Constraints [][]string
	Canon       []symbolic.Canon
	// FreshName is the name the next Fresh variable gets after the run.
	FreshName string
}

// replayCase is one replay of the sequence: a trace, its parameter layout
// and the options.
type replayCase struct {
	tr     *trace.Trace
	params []symexec.Param
	opts   symexec.Options
}

func outcomeOf(r *symexec.Replayer, rc replayCase) replayOutcome {
	res, err := symexec.Run(r, rc.tr, rc.params, rc.opts)
	if err != nil {
		return replayOutcome{Err: err.Error()}
	}
	o := replayOutcome{Truncated: res.Truncated, Steps: res.Steps, LoadObjects: res.LoadObjects}
	for _, q := range symexec.FlipQueries(res) {
		o.Targets = append(o.Targets, q.Target)
		var cs []string
		for _, c := range q.Constraints {
			cs = append(cs, c.String())
		}
		o.Constraints = append(o.Constraints, cs)
		// The canonical key covers the whole expression DAG; String
		// elides below depth 12.
		o.Canon = append(o.Canon, symbolic.Canonicalize(q.Constraints, 0))
	}
	o.FreshName = res.Ctx.Fresh("probe", 8).Name
	return o
}

// desynced returns a copy of tr whose middle memory event inside the
// action function names the wrong site, so a replay fails mid-function.
func desynced(tr *trace.Trace) (*trace.Trace, bool) {
	dispatch := slices.IndexFunc(tr.Events, func(ev trace.Event) bool {
		return ev.Kind == trace.HookCall && ev.Op == wasm.OpCallIndirect
	})
	if dispatch < 0 {
		return nil, false
	}
	var mems []int
	for i := dispatch; i < len(tr.Events); i++ {
		if tr.Events[i].Kind == trace.HookMem {
			mems = append(mems, i)
		}
	}
	if len(mems) < 2 {
		return nil, false
	}
	cut := *tr
	cut.Events = slices.Clone(tr.Events)
	cut.Events[mems[len(mems)/2]].PC += 1000
	return &cut, true
}

// TestReplayerReuseMatchesFreshReplayer runs one replayer per contract over
// a sequence of that contract's campaign traces, under three rotating
// input layouts (two memo lengths, and opaque inputs, whose pointed-to
// bytes become load objects), with a replay that fails mid-function and one
// cut by MaxSteps in between. Each replay must equal a new replayer's:
// error, truncation, steps, load objects, every flip query's target,
// constraints and canonical key, and the next Fresh name.
func TestReplayerReuseMatchesFreshReplayer(t *testing.T) {
	victim := eos.MustName("victim")
	for _, nc := range reuseContracts(t) {
		name, c := nc.name, nc.c
		var seq []replayCase
		failed, cut, loads := false, false, false
		for i, tr := range campaignTraces(t, c) {
			rc := replayCase{
				tr:     &tr,
				params: seedParams(attacker, victim, 100000, []string{"memo", "m", "m"}[i%3]),
				opts:   symexec.Options{Globals: map[uint32]uint64{0: uint64(victim)}, OpaqueInputs: i%3 == 2},
			}
			seq = append(seq, rc)
			want := outcomeOf(symexec.NewReplayer(c.Module), rc)
			loads = loads || want.LoadObjects > 0
			if want.Err != "" || want.Steps < 20 {
				continue
			}
			if !failed {
				if tr, ok := desynced(rc.tr); ok {
					bad := rc
					bad.tr = tr
					if outcomeOf(symexec.NewReplayer(c.Module), bad).Err != "" {
						seq = append(seq, bad, rc)
						failed = true
					}
				}
			}
			if !cut {
				short := rc
				short.opts.MaxSteps = want.Steps / 2
				seq = append(seq, short, rc)
				cut = true
			}
		}
		if !failed || !cut || !loads {
			t.Fatalf("%s: found a replay to fail mid-function: %v, to cut by MaxSteps: %v, with load objects: %v",
				name, failed, cut, loads)
		}
		r := symexec.NewReplayer(c.Module)
		for i, rc := range seq {
			got, want := outcomeOf(r, rc), outcomeOf(symexec.NewReplayer(c.Module), rc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay %d on a reused replayer differs from a new one:\n got: %+v\nwant: %+v", name, i, got, want)
			}
		}
	}
}
