package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/eos"
	"repro/internal/failure"
)

// deepCopy is how transactions were rolled back before the undo journal:
// a copy of every table, rows included, restored on revert. It stays as
// the reference the journal is checked against.
func deepCopy(db *Database) map[tableKey]*table {
	s := make(map[tableKey]*table, len(db.tables))
	for k, t := range db.tables {
		c := &table{keys: slices.Clone(t.keys), rows: make(map[uint64][]byte, len(t.rows))}
		for id, row := range t.rows {
			c.rows[id] = bytes.Clone(row)
		}
		s[k] = c
	}
	return s
}

// diffTables describes the first difference between two table sets: which
// tables exist, their keys in order, and each row's bytes.
func diffTables(got, want map[tableKey]*table) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tables, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("table %s missing", k)
		}
		if !slices.Equal(g.keys, w.keys) || len(g.rows) != len(w.rows) {
			return fmt.Sprintf("table %s: keys %v, want %v", k, g.keys, w.keys)
		}
		for id, row := range w.rows {
			if !bytes.Equal(g.rows[id], row) {
				return fmt.Sprintf("table %s row %d: %x, want %x", k, id, g.rows[id], row)
			}
		}
	}
	return ""
}

// TestJournalMatchesDeepCopy runs random write sequences through every
// write path (Database.Store and Remove, IterCache.Store, Update and
// Remove) over a few tables, in sessions that randomly commit or roll
// back. A reference database takes the same writes without a journal and
// restores a deep copy on rollback. After every session both must hold
// the same tables, keys and rows, and the iterator handles returned along
// the way, which tell absent tables from empty ones, must agree.
func TestJournalMatchesDeepCopy(t *testing.T) {
	code := eos.MustName("ctr")
	cases := []struct {
		name                 string
		seed                 int64
		tables, keys, maxOps int
	}{
		{"one table", 1, 1, 3, 4},
		{"few tables", 2, 3, 6, 8},
		{"long sessions", 3, 4, 16, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			db, ref := NewDatabase(), NewDatabase()
			for session := 0; session < 300; session++ {
				snap := deepCopy(ref)
				db.begin()
				ic, ric := NewIterCache(db), NewIterCache(ref)
				for op := rng.Intn(tc.maxOps + 1); op > 0; op-- {
					scope := eos.Name(1 + rng.Intn(tc.tables))
					id := uint64(rng.Intn(tc.keys))
					data := make([]byte, rng.Intn(4))
					rng.Read(data)
					kind := rng.Intn(5)
					switch kind {
					case 0:
						db.Store(code, scope, code, id, data)
						ref.Store(code, scope, code, id, data)
					case 1:
						db.Remove(code, scope, code, id)
						ref.Remove(code, scope, code, id)
					case 2:
						ic.Store(scope, code, code, id, data)
						ric.Store(scope, code, code, id, data)
					default: // IterCache.Update or Remove through a found row
						it, rit := ic.Find(code, scope, code, id), ric.Find(code, scope, code, id)
						if it != rit {
							t.Fatalf("session %d: find %d, reference %d", session, it, rit)
						}
						if it < 0 {
							continue
						}
						var err, rerr error
						if kind == 3 {
							err, rerr = ic.Update(it, data), ric.Update(rit, data)
						} else {
							err, rerr = ic.Remove(it), ric.Remove(rit)
						}
						if err != nil || rerr != nil {
							t.Fatalf("session %d: %v, reference %v", session, err, rerr)
						}
					}
					if e, re := ic.End(code, scope, code), ric.End(code, scope, code); e != re {
						t.Fatalf("session %d: end %d, reference %d", session, e, re)
					}
				}
				if rng.Intn(2) == 0 {
					db.rollback()
					ref.tables = snap
				} else {
					db.commit()
				}
				if d := diffTables(db.tables, ref.tables); d != "" {
					t.Fatalf("session %d: %s", session, d)
				}
				for _, e := range db.undo[:cap(db.undo)] {
					if e.prior != nil {
						t.Fatalf("session %d: closed journal still pins row %x", session, e.prior)
					}
				}
			}
		})
	}
}

// rejectNotifications is a contract that fails every notification.
type rejectNotifications struct{}

func (rejectNotifications) ApplyNative(ctx *Context, code, _ eos.Name) error {
	if code != ctx.Receiver {
		return &AssertError{Msg: "notification rejected"}
	}
	return nil
}

// TestFailingNotificationRevertsTransfer: bob's contract fails the
// notification of a transfer to bob, so the transfer reverts with it. The
// token tables must be as before. When bob had no balance, the transfer
// created his balance table, and the revert must delete it: db_end_i64
// then returns -1, as on a fresh chain, not an end handle.
func TestFailingNotificationRevertsTransfer(t *testing.T) {
	for _, funded := range []bool{false, true} {
		t.Run(fmt.Sprintf("funded=%v", funded), func(t *testing.T) {
			bc := New()
			bc.CreateAccount(alice)
			bc.CreateAccount(bob)
			if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
				t.Fatalf("issue: %v", err)
			}
			if funded {
				if err := bc.Issue(eos.TokenContract, bob, eos.MustAsset("1.0000 EOS")); err != nil {
					t.Fatalf("issue: %v", err)
				}
			}
			bc.DeployNative(bob, rejectNotifications{}, nil)
			before := bc.DB().DumpContract(eos.TokenContract)
			endBefore := NewIterCache(bc.DB()).End(eos.TokenContract, bob, accountsTable)
			rcpt := bc.PushTransaction(Transaction{Actions: []Action{
				transferAction(eos.TokenContract, alice, bob, "3.0000 EOS", ""),
			}})
			if !errors.Is(rcpt.Err, ErrAssert) {
				t.Fatalf("want the notification's assertion, got %v", rcpt.Err)
			}
			if after := bc.DB().DumpContract(eos.TokenContract); after != before {
				t.Errorf("token tables after the revert:\n%s\nwant:\n%s", after, before)
			}
			end := NewIterCache(bc.DB()).End(eos.TokenContract, bob, accountsTable)
			if (end == iterNotFound) != !funded || end != endBefore {
				t.Errorf("db_end_i64 on bob's balance table = %d after the revert, %d before", end, endBefore)
			}
		})
	}
}

// TestActionError: a reverted transaction's error is an *ActionError
// naming the failed action. Its message is the one runTransaction used to
// format eagerly, and it still matches its cause and keeps its class.
func TestActionError(t *testing.T) {
	bc := New()
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", ""),
		transferAction(eos.TokenContract, alice, bob, "100.0000 EOS", ""),
	}})
	var ae *ActionError
	if !errors.As(rcpt.Err, &ae) || ae.Index != 1 || ae.Name != eos.ActionTransfer || ae.Account != eos.TokenContract {
		t.Fatalf("want an ActionError for action 1, got %#v", rcpt.Err)
	}
	const want = "action 1 (transfer@eosio.token): eosio_assert: overdrawn balance"
	if got := rcpt.Err.Error(); got != want || got != fmt.Errorf("action %d (%s@%s): %w", 1, eos.ActionTransfer, eos.TokenContract, ae.Err).Error() {
		t.Errorf("message %q, want %q", got, want)
	}
	if !errors.Is(rcpt.Err, ErrAssert) {
		t.Error("errors.Is(ActionError, ErrAssert) = false")
	}

	bc = New()
	ctr := eos.MustName("apitest")
	if err := bc.DeployModule(ctr, mustCompile(t, hostAPIModule(t)), nil, nil); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	bc.Faults = faultPlan.For(0, 0)
	rcpt = bc.PushTransaction(Transaction{Actions: []Action{{Account: ctr, Name: eos.MustName("go"), Authorization: auth(alice)}}})
	if !errors.As(rcpt.Err, &ae) {
		t.Fatalf("want an ActionError for the injected fault, got %#v", rcpt.Err)
	}
	if got, want := failure.ClassOf(rcpt.Err), bc.Faults.Kind().FailureClass(); got != want {
		t.Errorf("class of the injected fault %v, want %v", got, want)
	}
}

// scriptWriter is a native contract driven by its payload, four bytes a
// command: op, scope, primary key, value. It writes rows of its table
// through both the Database and the iterator API, sends inline actions,
// schedules deferred transactions and fails on request, so random
// payloads cover every way a transaction changes the chain.
type scriptWriter struct {
	table eos.Name
}

// scriptWriter ops.
const (
	opStore byte = iota
	opIterWrite
	opRemove
	opInline
	opDeferred
	opFail
	numOps
)

func (w *scriptWriter) ApplyNative(ctx *Context, code, action eos.Name) error {
	if code != ctx.Receiver {
		return nil
	}
	for p := ctx.Data; len(p) >= 4; p = p[4:] {
		scope, id, val := eos.Name(1+p[1]), uint64(p[2]), []byte{p[3]}
		switch p[0] % numOps {
		case opStore:
			ctx.chain.db.Store(ctx.Receiver, scope, w.table, id, val)
		case opIterWrite:
			if it := ctx.Iters().Find(ctx.Receiver, scope, w.table, id); it >= 0 {
				if err := ctx.Iters().Update(it, val); err != nil {
					return err
				}
			} else {
				ctx.Iters().Store(scope, w.table, ctx.Receiver, id, val)
			}
		case opRemove:
			ctx.chain.db.Remove(ctx.Receiver, scope, w.table, id)
		case opInline:
			ctx.SendInline(Action{Account: ctx.Receiver, Name: action, Authorization: ctx.Auth,
				Data: []byte{opStore, p[1], p[2] + 1, p[3]}})
		case opDeferred:
			// An odd value makes the deferred transaction fail after
			// its write.
			ctx.SendDeferred(Transaction{Actions: []Action{{Account: ctx.Receiver, Name: action, Authorization: ctx.Auth,
				Data: []byte{opStore, p[1], p[2] + 2, p[3], opFail * (p[3] & 1), p[1], p[2], p[3]}}}})
		case opFail:
			return &AssertError{Msg: "scripted failure"}
		}
	}
	return nil
}

// chainState is what a session's Rollback must restore: the account set
// with each account's code fields, every table and each contract's dump,
// and the block state.
type chainState struct {
	accounts    map[eos.Name]Account
	tables      map[tableKey]*table
	dumps       map[eos.Name]string
	blockNum    uint32
	blockPrefix uint32
	timeUs      uint64
}

func captureState(bc *Blockchain) chainState {
	s := chainState{
		accounts:    map[eos.Name]Account{},
		tables:      deepCopy(bc.db),
		dumps:       map[eos.Name]string{},
		blockNum:    bc.blockNum,
		blockPrefix: bc.blockPrefix,
		timeUs:      bc.timeUs,
	}
	for name, a := range bc.accounts {
		s.accounts[name] = *a
	}
	for k := range bc.db.tables {
		s.dumps[k.Code] = bc.db.DumpContract(k.Code)
	}
	return s
}

// diffState describes the first difference between two chain states.
func diffState(got, want chainState) string {
	if len(got.accounts) != len(want.accounts) {
		return fmt.Sprintf("%d accounts, want %d", len(got.accounts), len(want.accounts))
	}
	for name, w := range want.accounts {
		if g, ok := got.accounts[name]; !ok || g != w {
			return fmt.Sprintf("account %s: %+v, want %+v", name, g, w)
		}
	}
	if d := diffTables(got.tables, want.tables); d != "" {
		return d
	}
	if len(got.dumps) != len(want.dumps) {
		return fmt.Sprintf("%d contracts with tables, want %d", len(got.dumps), len(want.dumps))
	}
	for code, w := range want.dumps {
		if got.dumps[code] != w {
			return fmt.Sprintf("DumpContract(%s):\n%s\nwant:\n%s", code, got.dumps[code], w)
		}
	}
	if got.blockNum != want.blockNum || got.blockPrefix != want.blockPrefix || got.timeUs != want.timeUs {
		return fmt.Sprintf("block %d/%x/%d, want %d/%x/%d",
			got.blockNum, got.blockPrefix, got.timeUs, want.blockNum, want.blockPrefix, want.timeUs)
	}
	return ""
}

// TestSessionRollbackMatchesDeepCopy runs random multi-transaction
// sequences in a session and rolls it back. The sequences mix committed
// and reverted transactions, writes that create tables, parents that
// schedule deferred transactions (some of which fail), accounts created
// in the session with native and Wasm code deployed onto them, and
// deploys and undeploys on accounts that existed at Begin. After
// Rollback the chain must equal a deep copy taken before Begin: accounts
// and their code, tables, dumps and block state. Between sessions the
// base state moves on through transactions committed outside any
// session, and the journal must then be empty and pin nothing.
func TestSessionRollbackMatchesDeepCopy(t *testing.T) {
	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("HoldBlocks=%v", hold), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			writer, apitest := eos.MustName("writer"), eos.MustName("apitest")
			rows := eos.MustName("rows")
			wasmCode := mustCompile(t, hostAPIModule(t))
			bc := New()
			bc.HoldBlocks = hold
			bc.CreateAccount(alice)
			bc.CreateAccount(bob)
			bc.DeployNative(writer, &scriptWriter{table: rows}, nil)
			if err := bc.DeployModule(apitest, wasmCode, nil, nil); err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("1000.0000 EOS")); err != nil {
				t.Fatalf("issue: %v", err)
			}
			existing := []eos.Name{alice, bob, writer, apitest}
			writerTx := func() Transaction {
				var tx Transaction
				for a := rng.Intn(2); a >= 0; a-- {
					data := make([]byte, 4*(1+rng.Intn(4)))
					for i := range data {
						data[i] = byte(rng.Intn(6))
					}
					// Fail rarely, so most writer transactions commit.
					for i := 0; i < len(data); i += 4 {
						if data[i] == opFail && rng.Intn(3) > 0 {
							data[i] = opStore
						}
					}
					tx.Actions = append(tx.Actions, Action{Account: writer, Name: eos.MustName("go"), Authorization: auth(writer), Data: data})
				}
				return tx
			}
			var reverted, committed, deferred, grown int
			for session := 0; session < 200; session++ {
				before := captureState(bc)
				s := bc.Begin()
				created := []eos.Name{}
				for step := rng.Intn(12); step > 0; step-- {
					var tx Transaction
					switch rng.Intn(10) {
					case 0, 1, 2, 3:
						tx = writerTx()
					case 4:
						to := append(existing[:2:2], created...)[rng.Intn(2+len(created))]
						tx = Transaction{Actions: []Action{transferAction(eos.TokenContract, alice, to,
							fmt.Sprintf("%d.0000 EOS", 1+rng.Intn(600)), "")}}
					case 5:
						tx = Transaction{Actions: []Action{{Account: apitest, Name: eos.MustName("go"), Authorization: auth(alice)}}}
					case 6:
						name := eos.Name(uint64(eos.MustName("new")) + uint64(session*16+step))
						bc.CreateAccount(name)
						created = append(created, name)
						continue
					case 7:
						if len(created) == 0 {
							continue
						}
						target := created[rng.Intn(len(created))]
						if rng.Intn(2) == 0 {
							bc.DeployNative(target, &scriptWriter{table: rows}, nil)
							tx = Transaction{Actions: []Action{{Account: target, Name: eos.MustName("go"), Authorization: auth(target),
								Data: []byte{opStore, 0, 1, 2}}}}
						} else {
							if err := bc.DeployModule(target, wasmCode, nil, nil); err != nil {
								t.Fatalf("deploy: %v", err)
							}
							tx = Transaction{Actions: []Action{{Account: target, Name: eos.MustName("go"), Authorization: auth(alice)}}}
						}
					case 8:
						target := existing[rng.Intn(len(existing))]
						switch rng.Intn(3) {
						case 0:
							bc.DeployNative(target, &ForwarderAgent{Victim: writer}, nil)
						case 1:
							bc.UnDeploy(target)
						default:
							if err := bc.DeployModule(target, wasmCode, nil, nil); err != nil {
								t.Fatalf("deploy: %v", err)
							}
						}
						continue
					default:
						bc.DB().Store(writer, eos.Name(9), rows, uint64(rng.Intn(4)), []byte{byte(step)})
						continue
					}
					rcpt := bc.PushTransaction(tx)
					if rcpt.Err != nil {
						reverted++
					} else {
						committed++
					}
					deferred += len(rcpt.DeferredSent)
					if len(bc.deferred) != 0 {
						t.Fatalf("session %d: %d deferred transactions left queued after a push", session, len(bc.deferred))
					}
				}
				if len(bc.db.tables) > len(before.tables) {
					grown++
				}
				s.Rollback()
				if d := diffState(captureState(bc), before); d != "" {
					t.Fatalf("session %d: after Rollback, %s", session, d)
				}
				// Move the base state on outside any session.
				if rcpt := bc.PushTransaction(writerTx()); rcpt.Err == nil {
					committed++
				} else {
					reverted++
				}
				if len(bc.db.marks) != 0 || len(bc.db.undo) != 0 {
					t.Fatalf("session %d: %d marks and %d journal entries left with no session open", session, len(bc.db.marks), len(bc.db.undo))
				}
				for _, e := range bc.db.undo[:cap(bc.db.undo)] {
					if e.prior != nil {
						t.Fatalf("session %d: closed journal still pins row %x", session, e.prior)
					}
				}
			}
			// The sequences must have exercised both outcomes, the
			// deferred path and tables created in a session.
			if reverted == 0 || committed == 0 || deferred == 0 || grown == 0 {
				t.Fatalf("%d reverted, %d committed, %d deferred, %d sessions created tables: the random sequences miss a case",
					reverted, committed, deferred, grown)
			}
		})
	}
}

// TestSessionsDoNotNest: Begin with a session open, and Rollback of a
// closed session, are bugs, so both panic.
func TestSessionsDoNotNest(t *testing.T) {
	bc := New()
	s := bc.Begin()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Begin in a session", func() { bc.Begin() })
	s.Rollback()
	mustPanic("a second Rollback", s.Rollback)
}
