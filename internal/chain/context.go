package chain

import (
	"strings"

	"repro/internal/eos"
)

// Context is the apply context of one contract execution: the state the
// EOSVM host APIs observe and mutate while apply(receiver, code, action)
// runs. A chain owns one Context and resets it at every apply, so a
// Context is valid only while its apply runs.
type Context struct {
	chain *Blockchain

	// Receiver is the account whose code is executing.
	Receiver eos.Name
	// Code is the account the action was addressed to. For notifications
	// Code != Receiver and retains the original addressee — the property
	// the Fake Notification exploit abuses (paper §2.3.2).
	Code eos.Name
	// Action is the action name.
	Action eos.Name
	// Data is the serialized action payload.
	Data []byte
	// Auth is the action's authorization list.
	Auth []PermissionLevel

	iters    *IterCache
	console  strings.Builder
	notified []eos.Name
	inline   []Action
	deferred []Transaction
	dbOps    []DBOp
}

// reset prepares the context for one apply. The buffers and the iterator
// cache keep their storage from earlier applies; their contents, and
// every iterator handle, start over.
func (ctx *Context) reset(receiver, code eos.Name, act *Action) {
	ctx.Receiver, ctx.Code, ctx.Action = receiver, code, act.Name
	ctx.Data, ctx.Auth = act.Data, act.Authorization
	ctx.iters.reset()
	ctx.notified = ctx.notified[:0]
	ctx.inline = ctx.inline[:0]
	ctx.deferred = ctx.deferred[:0]
	ctx.dbOps = ctx.dbOps[:0]
}

// release drops what the context points to in the finished apply's
// transaction, once its results are copied out: the chain outlives it.
func (ctx *Context) release() {
	ctx.Data, ctx.Auth = nil, nil
	ctx.console.Reset()
	clear(ctx.inline)
	clear(ctx.deferred)
}

// Chain returns the blockchain this context executes on.
func (ctx *Context) Chain() *Blockchain { return ctx.chain }

// HasAuth reports whether the action carries authorization of account.
func (ctx *Context) HasAuth(account eos.Name) bool {
	for _, pl := range ctx.Auth {
		if pl.Actor == account {
			return true
		}
	}
	return false
}

// RequireAuth asserts the action carries authorization of account.
func (ctx *Context) RequireAuth(account eos.Name) error {
	if !ctx.HasAuth(account) {
		return &AssertError{Msg: "missing required authority " + account.String()}
	}
	return nil
}

// RequireRecipient schedules a notification of the current action to
// account; the notified contract runs with the same code and data.
func (ctx *Context) RequireRecipient(account eos.Name) {
	if account == ctx.Receiver {
		return
	}
	ctx.notified = append(ctx.notified, account)
}

// SendInline schedules an inline action in the current transaction. The
// caller controls it: if any subsequent part of the transaction fails, the
// inline action is reverted with everything else (Rollback, paper §2.3.5).
func (ctx *Context) SendInline(act Action) {
	ctx.inline = append(ctx.inline, act)
}

// SendDeferred schedules a deferred transaction executed after the current
// one; its failure does not revert the current transaction.
func (ctx *Context) SendDeferred(tx Transaction) {
	ctx.deferred = append(ctx.deferred, tx)
}

// Print appends to the action console.
func (ctx *Context) Print(s string) { ctx.console.WriteString(s) }

// RecordDBOp registers a database access for the DBG.
func (ctx *Context) RecordDBOp(kind DBOpKind, tab eos.Name) {
	ctx.RecordDBOpKey(kind, tab, 0)
}

// RecordDBOpKey registers a database access with its primary key.
func (ctx *Context) RecordDBOpKey(kind DBOpKind, tab eos.Name, key uint64) {
	ctx.dbOps = append(ctx.dbOps, DBOp{
		Contract: ctx.Receiver, Action: ctx.Action, Kind: kind, Table: tab, Key: key,
	})
}

// Iters exposes the iterator cache to host APIs and native contracts.
func (ctx *Context) Iters() *IterCache { return ctx.iters }
