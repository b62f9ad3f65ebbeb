package fuzz

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
)

// freshScenario runs script on a scenario chain built for it alone, the
// way the scenario pass ran every script before it ran them in sessions
// of one chain. It is the oracle of TestScenarioSessionsMatchFreshChains.
func freshScenario(t *testing.T, f *Fuzzer, act eos.Name, script scenarioScript) string {
	t.Helper()
	bc, err := f.scenarioChain()
	if err != nil {
		t.Fatalf("fresh scenario chain: %v", err)
	}
	return renderScenario(bc, script(bc, act))
}

// renderScenario renders everything a script's run can show: per
// receipt the applies, database operations, console, inline and deferred
// sends and the error text, then the victim's trace events and its
// database dump.
func renderScenario(bc *chain.Blockchain, rcpts []*chain.Receipt) string {
	var sb strings.Builder
	for i, r := range rcpts {
		fmt.Fprintf(&sb, "receipt %d\nexecuted %v\ndbops %v\nconsole %q\ninline %v\ndeferred %v\n",
			i, r.Executed, r.DBOps, r.Console, r.InlineSent, r.DeferredSent)
		if r.Err != nil {
			fmt.Fprintf(&sb, "error %s\n", r.Err)
		}
		for _, tr := range r.Traces {
			if tr.Contract == victimName {
				fmt.Fprintf(&sb, "trace %s %v\n", tr.Action, tr.Events)
			}
		}
	}
	sb.WriteString(bc.DB().DumpContract(victimName))
	return sb.String()
}

// TestScenarioSessionsMatchFreshChains: for every generated class in both
// polarities, the trivial contract and a wild sample, each scenario
// script run in a session of one scenario chain, in the order
// runScenarios runs them, must show exactly what it shows on a fresh
// chain: the same receipts, victim traces and victim database dump.
func TestScenarioSessionsMatchFreshChains(t *testing.T) {
	type fixture struct {
		name string
		c    *contractgen.Contract
	}
	var fixtures []fixture
	for i, class := range contractgen.Classes {
		for _, vul := range []bool{true, false} {
			c, err := contractgen.Generate(contractgen.Spec{Class: class, Vulnerable: vul, Seed: int64(40 + i)})
			if err != nil {
				t.Fatalf("generate %s/%v: %v", class, vul, err)
			}
			fixtures = append(fixtures, fixture{fmt.Sprintf("%s/vulnerable=%v", class, vul), c})
		}
	}
	fixtures = append(fixtures, fixture{"trivial", contractgen.Trivial()})
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(64), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("generate wild: %v", err)
	}
	for i, w := range wild {
		fixtures = append(fixtures, fixture{fmt.Sprintf("wild/%d", i), w.Contract})
	}
	scripts := []struct {
		name   string
		script scenarioScript
	}{
		{"tamper", tamperScript},
		{"order-forward", orderScript(scnOrders[0])},
		{"order-reversed", orderScript(scnOrders[1])},
		{"cross-contract", crossContractScript},
	}
	played := 0
	for _, fx := range fixtures {
		f, err := New(fx.c.Module, fx.c.ABI, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		bc, err := f.scenarioChain()
		if err != nil {
			t.Fatalf("%s: scenario chain: %v", fx.name, err)
		}
		for _, act := range f.actions {
			if act == eos.ActionTransfer {
				continue
			}
			for _, s := range scripts {
				var got string
				playScenario(bc, act, s.script, func(r []*chain.Receipt) { got = renderScenario(bc, r) })
				if want := freshScenario(t, f, act, s.script); got != want {
					t.Errorf("%s %s %s: in a session\n%s\non a fresh chain\n%s", fx.name, act, s.name, got, want)
				}
				played++
			}
		}
	}
	if played == 0 {
		t.Fatal("no fixture has a scenario action")
	}
}
