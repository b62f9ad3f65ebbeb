package chain

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/eos"
	"repro/internal/trace"
)

var (
	carol  = eos.MustName("carol")
	script = eos.MustName("script")
	rowTab = eos.MustName("rows")
)

// recycleChain builds the chain TestRecycledReceiptEqualsFresh scripts:
// alice and bob observe transfers, emitting a trace event, printing and
// notifying carol, an account without code; script runs the action named
// in each push.
func recycleChain(t *testing.T) *Blockchain {
	t.Helper()
	bc := New()
	bc.Collector = trace.NewCollector()
	observer := nativeFunc(func(ctx *Context, code, action eos.Name) error {
		ctx.Chain().Collector.Emit(trace.Event{Kind: trace.HookCond, Func: 1, Operand: uint64(ctx.Receiver)})
		ctx.Print("seen by " + ctx.Receiver.String() + ";")
		ctx.RequireRecipient(carol)
		return nil
	})
	bc.DeployNative(alice, observer, nil)
	bc.DeployNative(bob, observer, nil)
	bc.CreateAccount(carol)
	var n uint64
	bc.DeployNative(script, nativeFunc(func(ctx *Context, code, action eos.Name) error {
		n++
		ctx.Chain().Collector.Emit(trace.Event{Kind: trace.HookMem, Func: 2, PC: int(n), Operand: uint64(action)})
		switch action {
		case eos.MustName("fail"):
			ctx.Print("about to fail;")
			ctx.Iters().Store(script, rowTab, script, n, []byte{byte(n)})
			ctx.RecordDBOpKey(DBWrite, rowTab, n)
			return &AssertError{Msg: fmt.Sprintf("failure %d", n)}
		case eos.MustName("inline"):
			ctx.SendInline(Action{Account: script, Name: eos.MustName("note"), Authorization: auth(script), Data: []byte{1, 2}})
		case eos.MustName("deferok"):
			ctx.SendDeferred(Transaction{Actions: []Action{{Account: script, Name: eos.MustName("log"), Authorization: auth(script)}}})
		case eos.MustName("deferfail"):
			ctx.SendDeferred(Transaction{Actions: []Action{{Account: script, Name: eos.MustName("fail"), Authorization: auth(script)}}})
		case eos.MustName("note"):
			ctx.Print("note;")
		case eos.MustName("log"):
			ctx.Print("log;")
			ctx.Iters().Store(script, rowTab, script, n, []byte{byte(n), 1})
			ctx.RecordDBOpKey(DBWrite, rowTab, n)
		}
		return nil
	}), nil)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("1000.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	return bc
}

// TestRecycledReceiptEqualsFresh pushes one script on two identical
// chains, twice over: one chain gets every receipt back through Recycle
// (and every trace buffer through Collector.Recycle), the other keeps
// them all. The script is a committed transfer with notification
// fan-out, a revert after console output and database writes, an inline
// action that writes nothing, a deferred transaction that commits and one
// that fails, a plain action, and an action addressed to no account,
// which leaves every list empty. Each step leaves some receipt field
// empty that an earlier step filled, so a field the reset missed shows up
// as stale content, and a list left empty but not nil shows up too. Every receipt must deep-equal its twin, Err compared by
// message, and the databases must match.
func TestRecycledReceiptEqualsFresh(t *testing.T) {
	recycling, fresh := recycleChain(t), recycleChain(t)
	steps := []struct {
		name string
		tx   Transaction
	}{
		{"transfer", Transaction{Actions: []Action{transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", "memo")}}},
		{"fail", Transaction{Actions: []Action{{Account: script, Name: eos.MustName("fail"), Authorization: auth(script)}}}},
		{"inline", Transaction{Actions: []Action{{Account: script, Name: eos.MustName("inline"), Authorization: auth(script)}}}},
		{"deferok", Transaction{Actions: []Action{{Account: script, Name: eos.MustName("deferok"), Authorization: auth(script)}}}},
		{"deferfail", Transaction{Actions: []Action{{Account: script, Name: eos.MustName("deferfail"), Authorization: auth(script)}}}},
		{"log", Transaction{Actions: []Action{{Account: script, Name: eos.MustName("log"), Authorization: auth(script)}}}},
		{"unknown", Transaction{Actions: []Action{{Account: eos.MustName("nobody"), Name: eos.MustName("log")}}}},
	}
	for round := 0; round < 2; round++ {
		for _, step := range steps {
			got, want := recycling.PushTransaction(step.tx), fresh.PushTransaction(step.tx)
			if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
				t.Errorf("round %d %s: Err %v, want %v", round, step.name, got.Err, want.Err)
			}
			g, w := *got, *want
			g.Err, w.Err = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Errorf("round %d %s: recycled receipt\n%+v\nwant\n%+v", round, step.name, g, w)
			}
			if d := diffTables(deepCopy(recycling.db), deepCopy(fresh.db)); d != "" {
				t.Errorf("round %d %s: databases differ: %s", round, step.name, d)
			}
			for _, tr := range got.Traces {
				recycling.Collector.Recycle(tr.Events)
			}
			recycling.Recycle(got)
		}
	}
}
