package chain

import (
	"errors"
	"fmt"

	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// PermissionLevel is an (actor, permission) authorization pair.
type PermissionLevel struct {
	Actor      eos.Name
	Permission eos.Name
}

// Action is one action of a transaction.
type Action struct {
	Account       eos.Name // the contract the action is addressed to
	Name          eos.Name
	Authorization []PermissionLevel
	Data          []byte
}

// Transaction is an ordered list of actions executed atomically.
type Transaction struct {
	Actions []Action
}

// ErrAssert is the failure produced by eosio_assert. It deliberately
// carries no failure class: assertion failures are fuzzing signal, not
// infrastructure faults.
var ErrAssert = errors.New("eosio_assert failed") //wasai:rawerr

// AssertError carries the contract-supplied assertion message.
type AssertError struct {
	Msg string
}

// Error implements error.
func (e *AssertError) Error() string { return fmt.Sprintf("eosio_assert: %s", e.Msg) }

// Is makes AssertError match ErrAssert.
func (e *AssertError) Is(target error) bool { return target == ErrAssert }

// ActionError is the error of a reverted transaction: the index, name and
// account of the action that failed, and why. Error formats the message
// only when it is read, because most reverts are fuzzing signal that no
// one prints.
type ActionError struct {
	Index   int
	Name    eos.Name
	Account eos.Name
	Err     error
}

// Error implements error.
func (e *ActionError) Error() string {
	return fmt.Sprintf("action %d (%s@%s): %v", e.Index, e.Name, e.Account, e.Err)
}

// Unwrap returns the cause.
func (e *ActionError) Unwrap() error { return e.Err }

// DBOpKind distinguishes reads from writes for the DBG (paper §3.3.2).
type DBOpKind byte

// Database operation kinds.
const (
	DBRead DBOpKind = iota + 1
	DBWrite
)

// DBOp records one database access: the pair ⟨read|write, tb⟩ of §3.3.2,
// extended with the primary key for the fine-grained dependency mode the
// paper lists as future work ("parse the database index").
type DBOp struct {
	Contract eos.Name
	Action   eos.Name
	Kind     DBOpKind
	Table    eos.Name
	Key      uint64
}

// ExecutedAction records one apply in a transaction receipt.
type ExecutedAction struct {
	Receiver eos.Name
	Code     eos.Name // the "code" parameter of apply(): the addressed contract
	Action   eos.Name
	// Notified reports whether this apply was a notification (receiver != code).
	Notified bool
}

// Receipt summarizes one executed (or reverted) transaction. The receipt
// PushTransaction returns is the caller's to keep, unless the caller hands
// it back with Recycle: the chain then refills it, and its lists, for a
// later transaction, so a recycled receipt, its lists and the traces in
// them must never be read again. A list the transaction left empty is
// nil, on a new receipt and a recycled one alike.
type Receipt struct {
	Executed []ExecutedAction
	Console  string
	Traces   []trace.Trace
	DBOps    []DBOp
	// InlineSent lists inline actions dispatched during execution.
	InlineSent []Action
	// DeferredSent lists deferred transactions scheduled during execution.
	DeferredSent []Transaction
	// Err is non-nil when the transaction reverted; all state changes were
	// rolled back but the traces of the partial execution are retained
	// (WASAI analyzes reverted runs too).
	Err error
}

// Reverted reports whether the transaction failed and was rolled back.
func (r *Receipt) Reverted() bool { return r.Err != nil }

// receiptLists is the storage of a receipt's lists while no receipt uses
// it: a list a transaction left empty parks its storage here, and the
// next receipt starts its lists in it.
type receiptLists struct {
	executed []ExecutedAction
	traces   []trace.Trace
	dbOps    []DBOp
	inline   []Action
	deferred []Transaction
}

// reuse empties r for a new transaction, starting each list in the
// parked storage when r has none of its own and leaving l empty.
func (r *Receipt) reuse(l *receiptLists) {
	*r = Receipt{
		Executed:     reuseList(r.Executed, &l.executed),
		Traces:       reuseList(r.Traces, &l.traces),
		DBOps:        reuseList(r.DBOps, &l.dbOps),
		InlineSent:   reuseList(r.InlineSent, &l.inline),
		DeferredSent: reuseList(r.DeferredSent, &l.deferred),
	}
}

// settle makes each list the transaction left empty nil, as on a new
// receipt, and parks its storage in l.
func (r *Receipt) settle(l *receiptLists) {
	parkList(&r.Executed, &l.executed)
	parkList(&r.Traces, &l.traces)
	parkList(&r.DBOps, &l.dbOps)
	parkList(&r.InlineSent, &l.inline)
	parkList(&r.DeferredSent, &l.deferred)
}

// reuseList returns list emptied, with its elements zeroed so it keeps
// nothing alive, or the parked storage when list has none.
func reuseList[T any](list []T, parked *[]T) []T {
	if cap(list) == 0 {
		list, *parked = *parked, nil
	}
	clear(list)
	return list[:0]
}

func parkList[T any](list, parked *[]T) {
	if len(*list) == 0 {
		if cap(*list) > 0 {
			*parked = *list
		}
		*list = nil
	}
}

// NativeContract is a contract implemented in Go rather than Wasm (system
// contracts and the adversary-oracle agent contracts).
type NativeContract interface {
	// ApplyNative handles apply(receiver=ctx.Receiver, code, action).
	// ctx is valid only during the call: the chain reuses it for its
	// next apply, so an implementation must not retain it or its Data.
	ApplyNative(ctx *Context, code, action eos.Name) error
}

// Account is one chain account.
type Account struct {
	Name eos.Name

	// Wasm contract (nil when the account has no code or native code).
	Module *wasm.Module
	ABI    *abi.ABI
	// Sites is the instrumentation site table when the deployed binary is
	// instrumented (nil otherwise); hooks are silent without it.
	Sites *instrument.SiteTable

	// Native contract (nil for Wasm accounts).
	Native NativeContract

	// vm runs the instance linked when Module was deployed, for the
	// deployment's lifetime: every apply resets the instance and reuses
	// both. DeployModule replaces it, and DeployNative and UnDeploy drop
	// it, so a redeployed account never runs stale code.
	vm *exec.VM
}

// HasCode reports whether the account has any contract deployed.
func (a *Account) HasCode() bool { return a.Module != nil || a.Native != nil }

// Blockchain is a single-node EOSIO chain simulator.
type Blockchain struct {
	accounts map[eos.Name]*Account
	db       *Database

	// Collector receives traces from instrumented contracts. Nil disables
	// collection.
	Collector *trace.Collector

	blockNum    uint32
	blockPrefix uint32
	timeUs      uint64 // microseconds since epoch

	deferred []Transaction

	// MaxInlineDepth bounds inline-action recursion, as EOSIO does.
	MaxInlineDepth int
	// Fuel is the per-action instruction budget for Wasm execution.
	Fuel int64
	// Faults, when non-nil, injects the planned fault ahead of host-API
	// dispatch (see internal/faultinject). Chains execute transactions
	// single-threaded, so the host-call order — and therefore which call
	// the fault lands on — is deterministic.
	Faults *faultinject.Injector
	// HoldBlocks freezes the block head: PushTransaction skips the
	// post-transaction advanceBlock, so block number, time and tapos
	// prefix stay constant across transactions. The multi-transaction
	// scenario driver uses this to compare permuted transaction sequences
	// under identical block state — otherwise every tapos read would
	// differ between the two orders and mask genuine ordering dependence.
	HoldBlocks bool

	backend Backend
	// env is the "env" module every Wasm deployment on this chain links
	// against, built once from the backend (see newEnv); each deployment
	// links its own wasai.* module (see hookModule).
	env exec.HostModule

	// apply is the context of every apply on the chain, reset by each
	// one. One suffices because applies never nest: notifications and
	// inline actions are dispatched by applyActionTree only after
	// applyOne returns, and native contracts only queue them.
	apply Context
	// recycled is the receipt Recycle handed back, which the next
	// PushTransaction refills; sub is the receipt each deferred
	// transaction fills before PushTransaction merges it; lists parks
	// list storage between receipts.
	recycled *Receipt
	sub      Receipt
	lists    receiptLists
	// notified is the storage of applyActionTree's notification list.
	notified []eos.Name
	// session is the open session, if any (see Begin).
	session *Session
}

// New returns an EOSIO chain with the eosio.token system contract
// deployed and no other accounts.
func New() *Blockchain { return NewWithBackend(EOSIO()) }

// NewWithBackend returns a chain running the given personality: the
// backend supplies the host-API surface and bootstraps its system
// contracts; everything else (dispatch, database, rollback, traces) is
// personality-independent.
func NewWithBackend(b Backend) *Blockchain {
	bc := &Blockchain{
		accounts:       map[eos.Name]*Account{},
		db:             NewDatabase(),
		blockNum:       1000,
		blockPrefix:    0x5eed5eed,
		timeUs:         1_577_836_800_000_000, // 2020-01-01T00:00:00Z
		MaxInlineDepth: 16,
		Fuel:           exec.DefaultFuel,
		backend:        b,
	}
	bc.env = bc.newEnv()
	bc.apply = Context{chain: bc, iters: NewIterCache(bc.db)}
	b.Bootstrap(bc)
	return bc
}

// Backend returns the chain's personality.
func (bc *Blockchain) Backend() Backend { return bc.backend }

// DB exposes the database (tests and detectors inspect it directly).
func (bc *Blockchain) DB() *Database { return bc.db }

// CreateAccount registers an account with no code.
func (bc *Blockchain) CreateAccount(name eos.Name) *Account {
	if a, ok := bc.accounts[name]; ok {
		return a
	}
	a := &Account{Name: name}
	bc.accounts[name] = a
	if bc.session != nil {
		bc.session.created = append(bc.session.created, name)
	}
	return a
}

// Account returns the named account, or nil.
func (bc *Blockchain) Account(name eos.Name) *Account { return bc.accounts[name] }

// DeployWasm installs a Wasm contract with its ABI on an account, creating
// the account if necessary. The module is compiled and linked immediately
// to surface link errors at deploy time, as Nodeos does.
func (bc *Blockchain) DeployWasm(name eos.Name, bin []byte, contractABI *abi.ABI) error {
	m, err := wasm.Decode(bin)
	if err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	if err := wasm.Validate(m); err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	cm, err := exec.Compile(m)
	if err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	sites, err := instrument.SitesFromModule(m)
	if err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	return bc.DeployModule(name, cm, contractABI, sites)
}

// DeployModule installs an already-compiled module (used by the fuzzer,
// which instruments and compiles a module once and deploys it on several
// chains). The account gets its own instance, linked here, and the
// decoded-IR VM that runs it. The instance's wasai.* hooks are bound to
// sites, so a hook event costs a call and an append.
func (bc *Blockchain) DeployModule(name eos.Name, cm *exec.CompiledModule, contractABI *abi.ABI, sites *instrument.SiteTable) error {
	a := bc.CreateAccount(name)
	inst, err := cm.Link(exec.Resolver{"env": bc.env, instrument.HookModule: bc.hookModule(name, sites)})
	if err != nil {
		return fmt.Errorf("chain: deploy %s: link: %w", name, err)
	}
	bc.saveCode(a)
	a.Module = cm.Module()
	a.vm = exec.NewFastVM(inst)
	a.ABI = contractABI
	a.Sites = sites
	a.Native = nil
	return nil
}

// DeployNative installs a Go-implemented contract on an account.
func (bc *Blockchain) DeployNative(name eos.Name, n NativeContract, contractABI *abi.ABI) {
	a := bc.CreateAccount(name)
	bc.saveCode(a)
	a.Native = n
	a.ABI = contractABI
	a.Module = nil
	a.vm = nil
}

// UnDeploy removes the contract from an account (the paper's "abandoned"
// contracts have their latest versions replaced with empty files).
func (bc *Blockchain) UnDeploy(name eos.Name) {
	if a, ok := bc.accounts[name]; ok {
		bc.saveCode(a)
		a.Module = nil
		a.vm = nil
		a.Native = nil
	}
}

// Session is a chain session opened by Begin. It records what the chain
// must restore on Rollback beyond the database, whose journal covers
// itself: the block state at Begin, the accounts created since, and the
// code of each account a deploy changed, as it was before the change.
type Session struct {
	bc          *Blockchain
	blockNum    uint32
	blockPrefix uint32
	timeUs      uint64
	created     []eos.Name
	code        []codeRecord
}

// codeRecord is an account's code fields before a deploy changed them.
type codeRecord struct {
	acct  *Account
	prior Account
}

// Begin opens a session: Rollback then returns the chain to its state at
// Begin, however many transactions, committed or reverted, ran in
// between. A transaction pushed in the session commits into it, so its
// writes stay journaled until Rollback. Accounts created, deploys,
// undeploys and block advances are undone too. The deferred queue needs
// no record: PushTransaction always leaves it empty. The exported knobs
// (Collector, Fuel, Faults, HoldBlocks, MaxInlineDepth) are the caller's
// and are left as they are. Sessions do not nest: Begin panics while one
// is open.
func (bc *Blockchain) Begin() *Session {
	if bc.session != nil {
		panic("chain: Begin with a session open")
	}
	bc.db.begin()
	bc.session = &Session{bc: bc, blockNum: bc.blockNum, blockPrefix: bc.blockPrefix, timeUs: bc.timeUs}
	return bc.session
}

// Rollback undoes everything the chain did since Begin and closes the
// session.
func (s *Session) Rollback() {
	bc := s.bc
	if bc.session != s {
		panic("chain: Rollback of a closed session")
	}
	bc.db.rollback()
	for i := len(s.code) - 1; i >= 0; i-- {
		*s.code[i].acct = s.code[i].prior
	}
	for _, name := range s.created {
		delete(bc.accounts, name)
	}
	bc.blockNum, bc.blockPrefix, bc.timeUs = s.blockNum, s.blockPrefix, s.timeUs
	bc.session = nil
}

// saveCode records a's code fields before a deploy changes them, so the
// open session's Rollback can put them back. Records are restored
// newest first, which leaves each account as it was at Begin.
func (bc *Blockchain) saveCode(a *Account) {
	if bc.session != nil {
		bc.session.code = append(bc.session.code, codeRecord{acct: a, prior: *a})
	}
}

// TimeUs returns the current chain time in microseconds.
func (bc *Blockchain) TimeUs() uint64 { return bc.timeUs }

// BlockNum returns the current head block number.
func (bc *Blockchain) BlockNum() uint32 { return bc.blockNum }

// TaposBlockNum mirrors the tapos_block_num intrinsic.
func (bc *Blockchain) TaposBlockNum() uint32 { return bc.blockNum & 0xffff }

// TaposBlockPrefix mirrors the tapos_block_prefix intrinsic.
func (bc *Blockchain) TaposBlockPrefix() uint32 { return bc.blockPrefix }

// advanceBlock moves the chain head forward one block.
func (bc *Blockchain) advanceBlock() {
	bc.blockNum++
	bc.timeUs += 500_000 // 500ms block interval
	// Deterministic pseudo-random-looking prefix evolution.
	bc.blockPrefix = bc.blockPrefix*1664525 + 1013904223
}

// PushTransaction executes tx atomically: on any failure all state changes
// are rolled back and the receipt carries the error. Deferred transactions
// scheduled by tx are executed afterwards, each in its own transaction
// context (their failure does not revert tx — the Rollback-safe pattern of
// paper §2.3.5). The receipt is new unless a receipt was handed back with
// Recycle since the last push, in which case it is that one, refilled.
func (bc *Blockchain) PushTransaction(tx Transaction) *Receipt {
	rcpt := bc.recycled
	bc.recycled = nil
	if rcpt == nil {
		rcpt = &Receipt{}
	}
	rcpt.reuse(&bc.lists)
	bc.runTransaction(tx, rcpt)
	// Run scheduled deferred transactions (only when the parent committed).
	if rcpt.Err == nil {
		for len(bc.deferred) > 0 {
			d := bc.deferred[0]
			bc.deferred = bc.deferred[1:]
			sub := &bc.sub
			sub.reuse(&bc.lists)
			bc.runTransaction(d, sub)
			rcpt.Executed = append(rcpt.Executed, sub.Executed...)
			rcpt.Traces = append(rcpt.Traces, sub.Traces...)
			rcpt.DBOps = append(rcpt.DBOps, sub.DBOps...)
			rcpt.Console += sub.Console
		}
	} else {
		bc.deferred = nil
	}
	if !bc.HoldBlocks {
		bc.advanceBlock()
	}
	rcpt.settle(&bc.lists)
	return rcpt
}

// Recycle hands back a receipt PushTransaction returned, for the next
// PushTransaction to refill instead of allocating one; the chain keeps
// the latest. The caller must not read the receipt, its lists or the
// traces in them again. The traces' event buffers are not the chain's:
// they go back to the collector with trace.Collector.Recycle, or stay
// the caller's.
func (bc *Blockchain) Recycle(r *Receipt) { bc.recycled = r }

// runTransaction runs tx into rcpt, which starts empty.
func (bc *Blockchain) runTransaction(tx Transaction, rcpt *Receipt) {
	bc.db.begin()
	deferredMark := len(bc.deferred)
	for i := range tx.Actions {
		if err := bc.applyActionTree(rcpt, tx.Actions[i], 0); err != nil {
			rcpt.Err = &ActionError{Index: i, Name: tx.Actions[i].Name, Account: tx.Actions[i].Account, Err: err}
			// Discard only the deferred transactions this tx scheduled.
			bc.deferred = bc.deferred[:deferredMark]
			break
		}
	}
	if rcpt.Err != nil {
		bc.db.rollback()
	} else {
		bc.db.commit()
	}
	if bc.Collector != nil {
		rcpt.Traces = bc.Collector.AppendTraces(rcpt.Traces)
	}
}

// applyActionTree executes one action: the primary apply on the addressed
// contract, then notification applies, then inline actions (depth-first),
// matching EOSIO's dispatch order.
func (bc *Blockchain) applyActionTree(rcpt *Receipt, act Action, depth int) error {
	if depth > bc.MaxInlineDepth {
		return failure.Newf(failure.Trap, "chain: inline action depth %d exceeds limit", depth)
	}
	// Primary apply: receiver == code == act.Account. The notification
	// list is the chain's: it is done with before the inline actions, the
	// only nested calls, run.
	notified, inline, err := bc.applyOne(rcpt, act.Account, act.Account, act, bc.notified[:0], nil)
	if err != nil {
		return err
	}
	// Notification applies (receiver varies, code stays).
	seen := map[eos.Name]bool{act.Account: true}
	for i := 0; i < len(notified); i++ {
		r := notified[i]
		if seen[r] {
			continue
		}
		seen[r] = true
		if notified, inline, err = bc.applyOne(rcpt, r, act.Account, act, notified, inline); err != nil {
			return err
		}
	}
	bc.notified = notified
	// Inline actions, depth-first.
	for _, in := range inline {
		rcpt.InlineSent = append(rcpt.InlineSent, in)
		if err := bc.applyActionTree(rcpt, in, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// applyOne runs a single apply(receiver, code, action) and appends the
// accounts it notifies and the inline actions it sends to notified and
// inline, which the caller owns: the apply context is the chain's and the
// next apply resets it.
func (bc *Blockchain) applyOne(rcpt *Receipt, receiver, code eos.Name, act Action, notified []eos.Name, inline []Action) ([]eos.Name, []Action, error) {
	acct, ok := bc.accounts[receiver]
	if !ok {
		if receiver == code {
			return notified, inline, failure.Newf(failure.Trap, "chain: unknown account %s", receiver)
		}
		return notified, inline, nil // notifying a non-existent account is a no-op
	}
	rcpt.Executed = append(rcpt.Executed, ExecutedAction{
		Receiver: receiver, Code: code, Action: act.Name, Notified: receiver != code,
	})
	if !acct.HasCode() {
		// Accounts without code accept actions and notifications as no-ops
		// (plain wallet accounts), but the receipt still records them.
		return notified, inline, nil
	}

	ctx := &bc.apply
	ctx.reset(receiver, code, &act)
	var err error
	if acct.Native != nil {
		err = acct.Native.ApplyNative(ctx, code, act.Name)
	} else {
		err = bc.applyWasm(ctx, acct)
	}

	// Export this apply's trace even when it failed: WASAI instruments the
	// contract itself, and a reverted execution still shows the path taken.
	if bc.Collector != nil {
		bc.Collector.Finalize(receiver, act.Name)
	}
	rcpt.Console += ctx.console.String()
	rcpt.DBOps = append(rcpt.DBOps, ctx.dbOps...)
	if err == nil {
		rcpt.DeferredSent = append(rcpt.DeferredSent, ctx.deferred...)
		bc.deferred = append(bc.deferred, ctx.deferred...)
		notified = append(notified, ctx.notified...)
		inline = append(inline, ctx.inline...)
	}
	ctx.release()
	return notified, inline, err
}

// applyWasm runs the account's apply entry on its deployment's VM, with
// the instance reset to the state linking produced. The VM runs the
// decoded-IR engine (exec.NewFastVM; bodies its compiler rejects run on
// the tree-walker). One instance and one VM per account suffice because
// an account's apply is never re-entered while it runs: notifications and
// inline actions are dispatched by applyActionTree only after applyOne
// returns, and native contracts only queue them.
func (bc *Blockchain) applyWasm(ctx *Context, acct *Account) error {
	vm := acct.vm
	vm.Instance().Reset()
	vm.SetFuel(bc.Fuel)
	vm.Context = ctx
	_, err := vm.Invoke("apply", uint64(ctx.Receiver), uint64(ctx.Code), uint64(ctx.Action))
	// The account outlives the apply; its VM must not keep the receipt
	// the context points to alive.
	vm.Context = nil
	return err
}
