package chain

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/eos"
)

func testCtx() *Context {
	bc := New()
	return &Context{
		chain:    bc,
		Receiver: victim,
		Code:     eos.TokenContract,
		Action:   eos.ActionTransfer,
		Auth:     auth(alice),
		iters:    NewIterCache(bc.db),
	}
}

func TestContextAuth(t *testing.T) {
	ctx := testCtx()
	if !ctx.HasAuth(alice) {
		t.Error("alice should be authorized")
	}
	if ctx.HasAuth(bob) {
		t.Error("bob should not be authorized")
	}
	if err := ctx.RequireAuth(alice); err != nil {
		t.Errorf("RequireAuth(alice): %v", err)
	}
	err := ctx.RequireAuth(bob)
	if err == nil || !strings.Contains(err.Error(), "missing required authority") {
		t.Errorf("RequireAuth(bob): %v", err)
	}
}

func TestRequireRecipientSkipsSelf(t *testing.T) {
	ctx := testCtx()
	ctx.RequireRecipient(victim) // self: no-op
	ctx.RequireRecipient(alice)
	ctx.RequireRecipient(alice) // duplicates are deduplicated at dispatch
	if len(ctx.notified) != 2 {
		t.Errorf("notified = %v", ctx.notified)
	}
	for _, n := range ctx.notified {
		if n == victim {
			t.Error("self-notification recorded")
		}
	}
}

func TestInlineDepthLimit(t *testing.T) {
	// A native contract that re-sends itself inline forever must be cut
	// off by MaxInlineDepth, reverting the transaction.
	bc := New()
	loop := eos.MustName("looper")
	bc.DeployNative(loop, nativeFunc(func(ctx *Context, code, action eos.Name) error {
		if code != ctx.Receiver {
			return nil
		}
		ctx.SendInline(Action{
			Account: loop, Name: action,
			Authorization: auth(loop),
		})
		return nil
	}), nil)
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account: loop, Name: eos.MustName("go"), Authorization: auth(loop),
	}}})
	if rcpt.Err == nil || !strings.Contains(rcpt.Err.Error(), "inline action depth") {
		t.Fatalf("want depth-limit error, got %v", rcpt.Err)
	}
}

// nativeFunc adapts a function to the NativeContract interface.
type nativeFunc func(ctx *Context, code, action eos.Name) error

func (f nativeFunc) ApplyNative(ctx *Context, code, action eos.Name) error {
	return f(ctx, code, action)
}

func TestDeferredFailureDoesNotRevertParent(t *testing.T) {
	// A native contract schedules a deferred transfer it cannot afford;
	// the parent transaction still commits.
	bc := New()
	sched := eos.MustName("scheduler")
	bc.DeployNative(sched, nativeFunc(func(ctx *Context, code, action eos.Name) error {
		if code != ctx.Receiver {
			return nil
		}
		ctx.SendDeferred(Transaction{Actions: []Action{{
			Account:       eos.TokenContract,
			Name:          eos.ActionTransfer,
			Authorization: auth(sched),
			Data: EncodeTransfer(TransferArgs{
				From: sched, To: alice, Quantity: eos.MustAsset("999.0000 EOS"),
			}),
		}}})
		// And a visible write so we can confirm the parent committed.
		ctx.chain.db.Store(sched, sched, eos.MustName("mark"), 1, []byte{1})
		return nil
	}), nil)
	bc.CreateAccount(alice)
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account: sched, Name: eos.MustName("go"), Authorization: auth(sched),
	}}})
	if rcpt.Err != nil {
		t.Fatalf("parent reverted: %v", rcpt.Err)
	}
	if _, ok := bc.db.Get(sched, sched, eos.MustName("mark"), 1); !ok {
		t.Error("parent write lost even though only the deferred leg failed")
	}
}

func TestUnDeployMakesAccountInert(t *testing.T) {
	bc := New()
	bc.DeployNative(victim, &ForwarderAgent{Victim: alice}, nil)
	bc.UnDeploy(victim)
	if bc.Account(victim).HasCode() {
		t.Error("undeployed account still has code")
	}
	// Actions to it are now no-ops.
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account: victim, Name: eos.ActionTransfer, Authorization: auth(alice),
	}}})
	if rcpt.Err != nil {
		t.Errorf("action on undeployed account: %v", rcpt.Err)
	}
}

// fanOut is a native contract that, on every notification it receives,
// notifies further accounts and sends one inline action to logger.
type fanOut struct {
	notify []eos.Name
	inline eos.Name
}

var logger = eos.MustName("logger")

func (f *fanOut) ApplyNative(ctx *Context, code, action eos.Name) error {
	if code == ctx.Receiver {
		return nil
	}
	for _, n := range f.notify {
		ctx.RequireRecipient(n)
	}
	if f.inline != 0 {
		ctx.SendInline(Action{Account: logger, Name: f.inline, Authorization: auth(ctx.Receiver)})
	}
	return nil
}

// TestNotificationFanOutOrder pins the dispatch order of a transfer whose
// notified accounts notify further accounts and send inline actions.
// EOSIO runs the primary apply, then every notification in the order it
// was queued, each receiver once, then the inline actions in the order
// they were sent. Here alice's notification queues carol, dave and erin,
// bob's queues carol again, carol's queues frank; dave and frank have no
// code. The transfer runs twice, so the second run reuses the chain's
// apply context and its grown buffers.
func TestNotificationFanOutOrder(t *testing.T) {
	carol, dave, erin, frank := eos.MustName("carol"), eos.MustName("dave"), eos.MustName("erin"), eos.MustName("frank")
	x, y, z, w := eos.MustName("x"), eos.MustName("y"), eos.MustName("z"), eos.MustName("w")
	bc := New()
	for _, n := range []eos.Name{dave, frank, logger} {
		bc.CreateAccount(n)
	}
	bc.DeployNative(alice, &fanOut{notify: []eos.Name{carol, dave, erin}, inline: x}, nil)
	bc.DeployNative(bob, &fanOut{notify: []eos.Name{carol}, inline: y}, nil)
	bc.DeployNative(carol, &fanOut{notify: []eos.Name{frank}, inline: z}, nil)
	bc.DeployNative(erin, &fanOut{inline: w}, nil)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	notified := func(r eos.Name) ExecutedAction {
		return ExecutedAction{Receiver: r, Code: eos.TokenContract, Action: eos.ActionTransfer, Notified: true}
	}
	inlined := func(a eos.Name) ExecutedAction {
		return ExecutedAction{Receiver: logger, Code: logger, Action: a}
	}
	wantExecuted := []ExecutedAction{
		{Receiver: eos.TokenContract, Code: eos.TokenContract, Action: eos.ActionTransfer},
		notified(alice), notified(bob), notified(carol), notified(dave), notified(erin), notified(frank),
		inlined(x), inlined(y), inlined(z), inlined(w),
	}
	wantInline := []Action{
		{Account: logger, Name: x, Authorization: auth(alice)},
		{Account: logger, Name: y, Authorization: auth(bob)},
		{Account: logger, Name: z, Authorization: auth(carol)},
		{Account: logger, Name: w, Authorization: auth(erin)},
	}
	for run := 0; run < 2; run++ {
		rcpt := bc.PushTransaction(Transaction{Actions: []Action{
			transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", ""),
		}})
		if rcpt.Err != nil {
			t.Fatalf("run %d: %v", run, rcpt.Err)
		}
		if !slices.Equal(rcpt.Executed, wantExecuted) {
			t.Errorf("run %d: executed\n%v\nwant\n%v", run, rcpt.Executed, wantExecuted)
		}
		if !reflect.DeepEqual(rcpt.InlineSent, wantInline) {
			t.Errorf("run %d: inline sent\n%v\nwant\n%v", run, rcpt.InlineSent, wantInline)
		}
		// The context outlives the apply but must not keep its
		// transaction, payload or sent actions alive.
		ctx := &bc.apply
		if ctx.Data != nil || ctx.Auth != nil {
			t.Errorf("run %d: apply context still points into the transaction", run)
		}
		for _, a := range ctx.inline[:cap(ctx.inline)] {
			if a.Authorization != nil || a.Data != nil {
				t.Errorf("run %d: apply context still holds sent action %v", run, a)
			}
		}
	}
}

// TestIteratorHandlesArePerApply: iterator handles belong to one apply.
// Each apply's first row iterator is handle 0 and its first end iterator
// -2, and a handle from an earlier apply does not resolve.
func TestIteratorHandlesArePerApply(t *testing.T) {
	ctr, tab := eos.MustName("iters"), eos.MustName("rows")
	var stale int32 = -1
	bc := New()
	bc.DeployNative(ctr, nativeFunc(func(ctx *Context, code, action eos.Name) error {
		ic := ctx.Iters()
		if stale >= 0 {
			if _, err := ic.Get(stale); err == nil {
				return &AssertError{Msg: "a handle from an earlier apply resolved"}
			}
		}
		row := ic.Store(ctr, tab, ctr, 7, []byte{1})
		if end := ic.End(ctr, ctr, tab); row != 0 || end != -2 {
			return &AssertError{Msg: fmt.Sprintf("row handle %d, end handle %d; want 0 and -2", row, end)}
		}
		stale = row
		return nil
	}), nil)
	for tx := 0; tx < 3; tx++ {
		rcpt := bc.PushTransaction(Transaction{Actions: []Action{{Account: ctr, Name: eos.MustName("go"), Authorization: auth(ctr)}}})
		if rcpt.Err != nil {
			t.Fatalf("tx %d: %v", tx, rcpt.Err)
		}
	}
}

// transferAllocs is the number of heap allocations a steady-state token
// transfer between two accounts with native code makes when its receipt
// goes back through Recycle: the copies of the two balance rows the
// database stores, which it keeps. The receipt and its lists, the
// notification list, the apply context and the iterator cache are the
// chain's and add none; with a new receipt, transaction context and
// notification list per transfer it was 9, and with one apply context
// per apply 21.
const transferAllocs = 2

// TestTransferAllocs bounds the allocations of a steady-state transfer, so
// a per-apply Context or IterCache, or a per-transaction receipt list,
// coming back fails it.
func TestTransferAllocs(t *testing.T) {
	bc := New()
	bc.DeployNative(alice, &fanOut{}, nil)
	bc.DeployNative(bob, &fanOut{}, nil)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("1000.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	tx := Transaction{Actions: []Action{transferAction(eos.TokenContract, alice, bob, "0.0001 EOS", "")}}
	var err error
	push := func() {
		rcpt := bc.PushTransaction(tx)
		if rcpt.Err != nil {
			err = rcpt.Err
		}
		bc.Recycle(rcpt)
	}
	push() // create bob's balance row
	allocs := testing.AllocsPerRun(100, push)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if allocs > transferAllocs {
		t.Errorf("a transfer makes %v allocations, want at most %d", allocs, transferAllocs)
	}
}
