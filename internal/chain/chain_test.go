package chain

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/eos"
)

var (
	alice  = eos.MustName("alice")
	bob    = eos.MustName("bob")
	victim = eos.MustName("victim")
)

func auth(actor eos.Name) []PermissionLevel {
	return []PermissionLevel{{Actor: actor, Permission: eos.ActiveAuth}}
}

func transferAction(token, from, to eos.Name, quantity string, memo string) Action {
	return Action{
		Account:       token,
		Name:          eos.ActionTransfer,
		Authorization: auth(from),
		Data: EncodeTransfer(TransferArgs{
			From: from, To: to, Quantity: eos.MustAsset(quantity), Memo: memo,
		}),
	}
}

func TestTokenIssueAndTransfer(t *testing.T) {
	bc := New()
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("100.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, bob, "30.0000 EOS", "hi"),
	}})
	if rcpt.Err != nil {
		t.Fatalf("transfer: %v", rcpt.Err)
	}
	if got := bc.Balance(eos.TokenContract, alice).String(); got != "70.0000 EOS" {
		t.Errorf("alice balance = %s, want 70.0000 EOS", got)
	}
	if got := bc.Balance(eos.TokenContract, bob).String(); got != "30.0000 EOS" {
		t.Errorf("bob balance = %s, want 30.0000 EOS", got)
	}
	// Both parties are notified.
	var notified []eos.Name
	for _, ex := range rcpt.Executed {
		if ex.Notified {
			notified = append(notified, ex.Receiver)
		}
	}
	if len(notified) != 2 || notified[0] != alice || notified[1] != bob {
		t.Errorf("notified = %v, want [alice bob]", notified)
	}
}

func TestTransferRequiresAuth(t *testing.T) {
	bc := New()
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	act := transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", "")
	act.Authorization = auth(bob) // wrong signer
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{act}})
	if rcpt.Err == nil || !errors.Is(rcpt.Err, ErrAssert) {
		t.Fatalf("want auth failure, got %v", rcpt.Err)
	}
	if got := bc.Balance(eos.TokenContract, alice).Amount; got != 100000 {
		t.Errorf("alice balance changed on reverted tx: %d", got)
	}
}

func TestTransferOverdrawnReverts(t *testing.T) {
	bc := New()
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", ""),
	}})
	if rcpt.Err == nil || !strings.Contains(rcpt.Err.Error(), "overdrawn") {
		t.Fatalf("want overdrawn error, got %v", rcpt.Err)
	}
}

func TestTransactionAtomicRollback(t *testing.T) {
	bc := New()
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	// Two actions: the first succeeds, the second fails -> both roll back.
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, bob, "5.0000 EOS", ""),
		transferAction(eos.TokenContract, alice, bob, "100.0000 EOS", ""),
	}})
	if rcpt.Err == nil {
		t.Fatal("want failure")
	}
	if got := bc.Balance(eos.TokenContract, alice).String(); got != "10.0000 EOS" {
		t.Errorf("alice balance = %s after rollback, want 10.0000 EOS", got)
	}
	if got := bc.Balance(eos.TokenContract, bob).Amount; got != 0 {
		t.Errorf("bob balance = %d after rollback, want 0", got)
	}
}

func TestFakeTokenIsDistinct(t *testing.T) {
	bc := New()
	fake := eos.MustName("fake.token")
	bc.DeployNative(fake, &TokenContract{Issuer: fake, Sym: eos.EOSSymbol}, nil)
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	if err := bc.Issue(fake, alice, eos.MustAsset("50.0000 EOS")); err != nil {
		t.Fatalf("issue fake EOS: %v", err)
	}
	// Fake EOS balance lives under the fake contract only.
	if got := bc.Balance(fake, alice).Amount; got != 500000 {
		t.Errorf("fake balance = %d, want 500000", got)
	}
	if got := bc.Balance(eos.TokenContract, alice).Amount; got != 0 {
		t.Errorf("official balance = %d, want 0", got)
	}
	// Transferring fake EOS notifies the recipient with code=fake.token.
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(fake, alice, bob, "1.0000 EOS", ""),
	}})
	if rcpt.Err != nil {
		t.Fatalf("fake transfer: %v", rcpt.Err)
	}
	for _, ex := range rcpt.Executed {
		if ex.Notified && ex.Code != fake {
			t.Errorf("notification code = %s, want %s", ex.Code, fake)
		}
	}
}

func TestForwarderAgentForwardsNotification(t *testing.T) {
	bc := New()
	agent := eos.MustName("fake.notif")
	bc.DeployNative(agent, &ForwarderAgent{Victim: victim}, nil)
	bc.CreateAccount(alice)
	bc.CreateAccount(victim)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	// alice pays the agent real EOS; the agent forwards the notification.
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, agent, "2.0000 EOS", ""),
	}})
	if rcpt.Err != nil {
		t.Fatalf("transfer: %v", rcpt.Err)
	}
	var sawVictim bool
	for _, ex := range rcpt.Executed {
		if ex.Receiver == victim && ex.Notified {
			sawVictim = true
			// Crucially the code parameter is still eosio.token.
			if ex.Code != eos.TokenContract {
				t.Errorf("forwarded notification code = %s, want eosio.token", ex.Code)
			}
		}
	}
	if !sawVictim {
		t.Error("victim was not notified")
	}
	// The victim received no EOS.
	if got := bc.Balance(eos.TokenContract, victim).Amount; got != 0 {
		t.Errorf("victim balance = %d, want 0", got)
	}
}

func TestDeferredSurvivesLaterFailure(t *testing.T) {
	bc := New()
	bc.CreateAccount(alice)
	bc.CreateAccount(bob)
	if err := bc.Issue(eos.TokenContract, alice, eos.MustAsset("10.0000 EOS")); err != nil {
		t.Fatalf("issue: %v", err)
	}
	// A deferred transfer scheduled by a native proxy is executed after the
	// parent commits, in its own context.
	deferredTx := Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", "deferred"),
	}}
	bc.deferred = append(bc.deferred, deferredTx)
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{
		transferAction(eos.TokenContract, alice, bob, "1.0000 EOS", "parent"),
	}})
	if rcpt.Err != nil {
		t.Fatalf("parent: %v", rcpt.Err)
	}
	if got := bc.Balance(eos.TokenContract, bob).String(); got != "2.0000 EOS" {
		t.Errorf("bob balance = %s, want 2.0000 EOS (parent + deferred)", got)
	}
}

func TestDatabaseIterators(t *testing.T) {
	db := NewDatabase()
	code := eos.MustName("ctr")
	scope := eos.MustName("scope")
	tab := eos.MustName("tab")
	ic := NewIterCache(db)

	// Empty table: find returns -1 (table absent).
	if it := ic.Find(code, scope, tab, 5); it != -1 {
		t.Errorf("find in absent table = %d, want -1", it)
	}
	it1 := ic.Store(scope, tab, code, 10, []byte("ten"))
	it2 := ic.Store(scope, tab, code, 20, []byte("twenty"))
	if it1 < 0 || it2 < 0 {
		t.Fatalf("store iterators: %d %d", it1, it2)
	}
	row, err := ic.Get(it1)
	if err != nil || string(row) != "ten" {
		t.Fatalf("get: %q %v", row, err)
	}
	// find of a missing key in an existing table returns the end iterator.
	endIt := ic.Find(code, scope, tab, 15)
	if endIt >= 0 || endIt == -1 {
		t.Errorf("find(missing) = %d, want end iterator (< -1)", endIt)
	}
	if e := ic.End(code, scope, tab); e != endIt {
		t.Errorf("End = %d, want %d", e, endIt)
	}
	// next from 10 reaches 20, then end.
	n1, pk := ic.Next(it1)
	if pk != 20 {
		t.Errorf("next pk = %d, want 20", pk)
	}
	n2, _ := ic.Next(n1)
	if n2 != endIt {
		t.Errorf("next(20) = %d, want end %d", n2, endIt)
	}
	// previous from end is the last row.
	p1, pk := ic.Previous(endIt)
	if pk != 20 || p1 < 0 {
		t.Errorf("previous(end) pk = %d, want 20", pk)
	}
	// lowerbound.
	lb := ic.LowerBound(code, scope, tab, 15)
	row, err = ic.Get(lb)
	if err != nil || string(row) != "twenty" {
		t.Errorf("lowerbound(15) row = %q %v", row, err)
	}
	// update and remove.
	if err := ic.Update(it1, []byte("TEN")); err != nil {
		t.Fatalf("update: %v", err)
	}
	row, _ = ic.Get(it1)
	if string(row) != "TEN" {
		t.Errorf("after update: %q", row)
	}
	if err := ic.Remove(it1); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := ic.Get(it1); err == nil {
		t.Error("get after remove should fail")
	}
	if db.Rows(code, scope, tab) != 1 {
		t.Errorf("rows = %d, want 1", db.Rows(code, scope, tab))
	}
}

func TestPackActionRoundTrip(t *testing.T) {
	act := Action{
		Account:       eos.MustName("eosio.token"),
		Name:          eos.ActionTransfer,
		Authorization: auth(alice),
		Data:          []byte{1, 2, 3, 4},
	}
	got, err := UnpackAction(PackAction(act))
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if got.Account != act.Account || got.Name != act.Name ||
		len(got.Authorization) != 1 || got.Authorization[0].Actor != alice ||
		string(got.Data) != string(act.Data) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUnknownAccountFails(t *testing.T) {
	bc := New()
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account: eos.MustName("nosuch"), Name: eos.ActionTransfer,
	}}})
	if rcpt.Err == nil {
		t.Fatal("want error for unknown account")
	}
}
