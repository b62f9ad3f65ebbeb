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
