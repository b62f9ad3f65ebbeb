package chain

import (
	"encoding/binary"
	"fmt"

	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/leb128"
)

// accountsTable is the balance table name used by eosio.token.
var accountsTable = eos.MustName("accounts")

// TokenContract is the Go-native implementation of the eosio.token system
// contract. Deploying the same implementation under a different account
// (with the same "EOS" symbol) is exactly how the Fake EOS adversary mints
// counterfeit tokens (paper §2.3.1) — EOSIO lets anyone issue a token with
// any name.
type TokenContract struct {
	Issuer eos.Name
	Sym    eos.Symbol
}

// ApplyNative dispatches the token actions.
func (t *TokenContract) ApplyNative(ctx *Context, code, action eos.Name) error {
	// The token contract only acts on actions addressed to itself.
	if code != ctx.Receiver {
		return nil
	}
	switch action {
	case eos.ActionTransfer:
		return t.transfer(ctx)
	case eos.MustName("issue"):
		return t.issue(ctx)
	default:
		return &AssertError{Msg: fmt.Sprintf("unknown action %s", action)}
	}
}

func (t *TokenContract) balance(ctx *Context, owner eos.Name) eos.Asset {
	row, ok := ctx.chain.db.Get(ctx.Receiver, owner, accountsTable, uint64(t.Sym)>>8)
	if !ok || len(row) < 16 {
		return eos.NewAsset(0, t.Sym)
	}
	return eos.Asset{
		Amount: int64(binary.LittleEndian.Uint64(row[:8])),
		Symbol: eos.Symbol(binary.LittleEndian.Uint64(row[8:])),
	}
}

func (t *TokenContract) setBalance(ctx *Context, owner eos.Name, a eos.Asset) {
	// The database copies the row, so it is built on the stack.
	var row [16]byte
	binary.LittleEndian.PutUint64(row[:8], uint64(a.Amount))
	binary.LittleEndian.PutUint64(row[8:], uint64(a.Symbol))
	ctx.chain.db.Store(ctx.Receiver, owner, accountsTable, uint64(t.Sym)>>8, row[:])
	ctx.RecordDBOp(DBWrite, accountsTable)
}

// issue implements issue(to, quantity, memo): only the issuer may mint.
func (t *TokenContract) issue(ctx *Context) error {
	args, err := decodeIssue(ctx.Data)
	if err != nil {
		return &AssertError{Msg: err.Error()}
	}
	if err := ctx.RequireAuth(t.Issuer); err != nil {
		return err
	}
	if args.Quantity.Symbol != t.Sym {
		return &AssertError{Msg: "symbol precision mismatch"}
	}
	bal, _ := t.balance(ctx, args.To).Add(args.Quantity)
	t.setBalance(ctx, args.To, bal)
	return nil
}

// transfer implements transfer(from, to, quantity, memo) with EOSIO
// semantics: authorization of from, balance movement, and notification of
// both parties via require_recipient.
func (t *TokenContract) transfer(ctx *Context) error {
	args, _, err := decodeTransfer(ctx.Data)
	if err != nil {
		return &AssertError{Msg: err.Error()}
	}
	if args.From == args.To {
		return &AssertError{Msg: "cannot transfer to self"}
	}
	if err := ctx.RequireAuth(args.From); err != nil {
		return err
	}
	if ctx.chain.Account(args.To) == nil {
		return &AssertError{Msg: "to account does not exist"}
	}
	if args.Quantity.Symbol != t.Sym {
		return &AssertError{Msg: "symbol precision mismatch"}
	}
	if args.Quantity.Amount <= 0 {
		return &AssertError{Msg: "must transfer positive quantity"}
	}
	fromBal := t.balance(ctx, args.From)
	if fromBal.Amount < args.Quantity.Amount {
		return &AssertError{Msg: "overdrawn balance"}
	}
	fromBal.Amount -= args.Quantity.Amount
	t.setBalance(ctx, args.From, fromBal)
	toBal, _ := t.balance(ctx, args.To).Add(args.Quantity)
	t.setBalance(ctx, args.To, toBal)
	ctx.RequireRecipient(args.From)
	ctx.RequireRecipient(args.To)
	return nil
}

// TransferArgs is the decoded transfer action payload.
type TransferArgs struct {
	From     eos.Name
	To       eos.Name
	Quantity eos.Asset
	Memo     string
}

// transferFixed is the size of the fixed-width head of a transfer
// payload: from, to, and the quantity's amount and symbol, 8 bytes each.
const transferFixed = 32

// DecodeTransfer parses the canonical transfer payload: the fixed head
// (little-endian), the LEB128 memo length, then the memo. Bytes past the
// memo are ignored. A payload that layout cannot read goes to the generic
// abi decoder for its error, so rejected payloads and their error text are
// the ones abi.TransferABI gives; FuzzTransferCodec holds the two decoders
// to the same accept/reject split.
func DecodeTransfer(data []byte) (TransferArgs, error) {
	args, memo, err := decodeTransfer(data)
	if err != nil {
		return TransferArgs{}, err
	}
	args.Memo = string(memo)
	return args, nil
}

// decodeTransfer is DecodeTransfer with the memo left as a view of data,
// for the token contract, which checks the memo but never reads it.
func decodeTransfer(data []byte) (TransferArgs, []byte, error) {
	if len(data) >= transferFixed {
		n, sz, err := leb128.Uint(data[transferFixed:], 32)
		memo := transferFixed + sz
		if end := memo + int(n); err == nil && end <= len(data) {
			return TransferArgs{
				From: eos.Name(binary.LittleEndian.Uint64(data[0:])),
				To:   eos.Name(binary.LittleEndian.Uint64(data[8:])),
				Quantity: eos.Asset{
					Amount: int64(binary.LittleEndian.Uint64(data[16:])),
					Symbol: eos.Symbol(binary.LittleEndian.Uint64(data[24:])),
				},
			}, data[memo:end], nil
		}
	}
	_, err := abi.NewDecoder(abi.TransferABI(), data).DecodeAction(eos.ActionTransfer)
	return TransferArgs{}, nil, fmt.Errorf("bad transfer payload: %w", err)
}

// EncodeTransfer serializes a transfer payload in the layout
// DecodeTransfer reads, into one buffer of the exact size.
func EncodeTransfer(args TransferArgs) []byte {
	size := transferFixed + 1 + len(args.Memo)
	for v := uint64(len(args.Memo)) >> 7; v != 0; v >>= 7 {
		size++
	}
	p := appendTransferHead(make([]byte, 0, size), args.From, args.To, args.Quantity, len(args.Memo))
	return append(p, args.Memo...)
}

// AppendTransfer appends to dst the payload EncodeTransfer gives for a
// memo of these bytes, so a caller that reuses dst encodes without
// allocating.
func AppendTransfer(dst []byte, from, to eos.Name, quantity eos.Asset, memo []byte) []byte {
	return append(appendTransferHead(dst, from, to, quantity, len(memo)), memo...)
}

// appendTransferHead appends the fixed head and the memo length.
func appendTransferHead(dst []byte, from, to eos.Name, quantity eos.Asset, memoLen int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(from))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(to))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(quantity.Amount))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(quantity.Symbol))
	return leb128.AppendUint(dst, uint64(memoLen))
}

type issueArgs struct {
	To       eos.Name
	Quantity eos.Asset
	Memo     string
}

var issueABI = &abi.ABI{
	Structs: []abi.Struct{{
		Name: "issue",
		Fields: []abi.Field{
			{Name: "to", Type: "name"},
			{Name: "quantity", Type: "asset"},
			{Name: "memo", Type: "string"},
		},
	}},
	Actions: []abi.Action{{Name: eos.MustName("issue"), Type: "issue"}},
}

func decodeIssue(data []byte) (issueArgs, error) {
	d := abi.NewDecoder(issueABI, data)
	vals, err := d.DecodeAction(eos.MustName("issue"))
	if err != nil {
		return issueArgs{}, fmt.Errorf("bad issue payload: %w", err)
	}
	return issueArgs{To: vals[0].(eos.Name), Quantity: vals[1].(eos.Asset), Memo: vals[2].(string)}, nil
}

// EncodeIssue serializes an issue payload.
func EncodeIssue(to eos.Name, quantity eos.Asset, memo string) []byte {
	enc := abi.NewEncoder(issueABI)
	p, err := enc.EncodeAction(eos.MustName("issue"), []any{to, quantity, memo})
	if err != nil {
		panic(err)
	}
	return p
}

// Issue mints quantity to account `to` (test/bench convenience: pushes an
// issue transaction authorized by the issuer).
func (bc *Blockchain) Issue(token, to eos.Name, quantity eos.Asset) error {
	acct := bc.Account(token)
	if acct == nil {
		return failure.Newf(failure.Trap, "chain: no token contract %s", token)
	}
	tc, ok := acct.Native.(*TokenContract)
	if !ok {
		return failure.Newf(failure.Trap, "chain: %s is not a native token contract", token)
	}
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account:       token,
		Name:          eos.MustName("issue"),
		Authorization: []PermissionLevel{{Actor: tc.Issuer, Permission: eos.ActiveAuth}},
		Data:          EncodeIssue(to, quantity, ""),
	}}})
	return rcpt.Err
}

// Balance returns `owner`'s balance at the given token contract.
func (bc *Blockchain) Balance(token, owner eos.Name) eos.Asset {
	acct := bc.Account(token)
	if acct == nil {
		return eos.EOS(0)
	}
	tc, ok := acct.Native.(*TokenContract)
	if !ok {
		return eos.EOS(0)
	}
	row, found := bc.db.Get(token, owner, accountsTable, uint64(tc.Sym)>>8)
	if !found || len(row) < 16 {
		return eos.NewAsset(0, tc.Sym)
	}
	return eos.Asset{
		Amount: int64(binary.LittleEndian.Uint64(row[:8])),
		Symbol: eos.Symbol(binary.LittleEndian.Uint64(row[8:])),
	}
}

// ForwarderAgent is the fake.notif adversary contract of paper §2.3.2: on
// being notified of a genuine eosio.token transfer it forwards the
// notification to the victim. Because require_recipient preserves the
// `code` parameter (still eosio.token), the victim's Fake-EOS guard passes
// even though the victim received no EOS.
type ForwarderAgent struct {
	Victim eos.Name
}

// ApplyNative forwards transfer notifications from eosio.token.
func (f *ForwarderAgent) ApplyNative(ctx *Context, code, action eos.Name) error {
	if code == eos.TokenContract && action == eos.ActionTransfer && ctx.Receiver != f.Victim {
		ctx.RequireRecipient(f.Victim)
	}
	return nil
}

// EvilNotifier is the adversary contract of the inter-contract call
// scenario (WACANA's cross-contract family): on any action addressed to
// itself it notifies the victim, so the victim's apply runs with
// code == the evil account — the cross-boundary context a contract must
// never treat as its own. A victim that dispatches privileged logic (or
// sends inline actions) for foreign-code actions is exploitable: the
// attacker reaches that logic through the notifier without ever
// addressing the victim.
type EvilNotifier struct {
	Victim eos.Name
}

// ApplyNative forwards every self-addressed action to the victim.
func (e *EvilNotifier) ApplyNative(ctx *Context, code, action eos.Name) error {
	if code == ctx.Receiver && ctx.Receiver != e.Victim {
		ctx.RequireRecipient(e.Victim)
	}
	return nil
}

// ProxyAgent replays a received action to a target as an inline action —
// the "evil contract" of the Rollback exploit (paper §2.3.5): it
// participates and checks the outcome inside one transaction, asserting
// (and thereby reverting everything) when the outcome is unfavourable.
type ProxyAgent struct {
	Token eos.Name // token contract used to pay the target
}

// RollbackProbeArgs is the payload of the ProxyAgent's "probe" action.
type RollbackProbeArgs struct {
	Target   eos.Name
	Quantity eos.Asset
	Memo     string
}

// ActionProbe is the ProxyAgent entry action name.
var ActionProbe = eos.MustName("probe")

// ApplyNative implements the probe: pay the target via an inline transfer,
// then (after the target's reveal logic ran) assert on our balance delta.
// The balance check itself happens in the fuzzer, which inspects whether
// the transaction would have been profitable; the agent's job is to place
// both legs in one revertible transaction.
func (p *ProxyAgent) ApplyNative(ctx *Context, code, action eos.Name) error {
	if code != ctx.Receiver || action != ActionProbe {
		return nil
	}
	var args RollbackProbeArgs
	if len(ctx.Data) < 24 {
		return &AssertError{Msg: "bad probe payload"}
	}
	args.Target = eos.Name(binary.LittleEndian.Uint64(ctx.Data[0:]))
	args.Quantity = eos.Asset{
		Amount: int64(binary.LittleEndian.Uint64(ctx.Data[8:])),
		Symbol: eos.Symbol(binary.LittleEndian.Uint64(ctx.Data[16:])),
	}
	if rest := ctx.Data[24:]; len(rest) > 0 {
		args.Memo = string(rest)
	}
	ctx.SendInline(Action{
		Account:       p.Token,
		Name:          eos.ActionTransfer,
		Authorization: []PermissionLevel{{Actor: ctx.Receiver, Permission: eos.ActiveAuth}},
		Data: EncodeTransfer(TransferArgs{
			From: ctx.Receiver, To: args.Target, Quantity: args.Quantity, Memo: args.Memo,
		}),
	})
	return nil
}
