// Package chain implements a local EOSIO blockchain: accounts, contract
// deployment, transaction execution with EOSIO's notification and inline /
// deferred action semantics, the multi-index key-value database exposed via
// the db_* intrinsics, native system contracts (eosio.token), and the host
// API surface the EOSVM provides to Wasm contracts.
//
// It substitutes for the Nodeos 1.8.6 testbed the paper instruments: the
// fuzzer interacts with contracts exactly the way transactions do on the
// real chain (including rollback of failed transactions and cross-contract
// notification fan-out), which is all the vulnerability oracles observe.
package chain

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/failure"

	"repro/internal/eos"
)

// tableKey identifies one (code, scope, table) database table.
type tableKey struct {
	Code  eos.Name
	Scope eos.Name
	Table eos.Name
}

// String renders the key for diagnostics.
func (k tableKey) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Code, k.Scope, k.Table)
}

// table is one primary-index table: rows sorted by primary key.
type table struct {
	keys []uint64 // sorted
	rows map[uint64][]byte
}

func newTable() *table { return &table{rows: map[uint64][]byte{}} }

func (t *table) find(id uint64) (int, bool) {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= id })
	return i, i < len(t.keys) && t.keys[i] == id
}

// store sets row id to row, which the table owns from then on.
func (t *table) store(id uint64, row []byte) {
	if _, ok := t.rows[id]; !ok {
		i, _ := t.find(id)
		t.keys = append(t.keys, 0)
		copy(t.keys[i+1:], t.keys[i:])
		t.keys[i] = id
	}
	t.rows[id] = row
}

func (t *table) remove(id uint64) {
	if _, ok := t.rows[id]; !ok {
		return
	}
	delete(t.rows, id)
	i, _ := t.find(id)
	t.keys = append(t.keys[:i], t.keys[i+1:]...)
}

// Database is the chain's persistent key-value store.
type Database struct {
	tables map[tableKey]*table

	// undo is the journal of the open sessions: one entry per write, in
	// write order. marks holds one index into undo per open session,
	// innermost last: the journal length when that session began. Writes
	// made while no session is open are not recorded.
	undo  []undoEntry
	marks []int
}

// undoEntry records what one write replaced: a table the write created,
// or the prior row under (key, id), absent when had is false.
type undoEntry struct {
	key     tableKey
	id      uint64
	prior   []byte
	had     bool
	created bool
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{tables: map[tableKey]*table{}} }

// begin opens a session nested in the open ones, if any. Sessions close
// in LIFO order: a transaction's session always closes before
// runTransaction returns, so it nests inside a chain session (see
// Blockchain.Begin) and never around one.
func (db *Database) begin() {
	db.marks = append(db.marks, len(db.undo))
}

// commit closes the innermost session, keeping its writes. Inside an
// outer session its entries stay in the journal, so the outer session
// can still undo them; only the outermost commit truncates the journal,
// and zeroes it so that it pins no replaced rows.
func (db *Database) commit() {
	db.marks = db.marks[:len(db.marks)-1]
	if len(db.marks) == 0 {
		clear(db.undo)
		db.undo = db.undo[:0]
	}
}

// rollback closes the innermost session, undoing its writes in reverse
// order. A table the session created is deleted, not left empty:
// db_find_i64 and friends tell an absent table (-1) from an empty one (an
// end handle).
func (db *Database) rollback() {
	mark := db.marks[len(db.marks)-1]
	for i := len(db.undo) - 1; i >= mark; i-- {
		e := &db.undo[i]
		switch {
		case e.created:
			delete(db.tables, e.key)
		case e.had:
			db.tables[e.key].store(e.id, e.prior)
		default:
			db.tables[e.key].remove(e.id)
		}
	}
	clear(db.undo[mark:])
	db.undo = db.undo[:mark]
	db.marks = db.marks[:len(db.marks)-1]
}

func (db *Database) record(e undoEntry) {
	if len(db.marks) > 0 {
		db.undo = append(db.undo, e)
	}
}

// put stores a copy of data as row id of table k, creating the table if
// needed. Every database write goes through put or erase, so the journal
// sees it.
func (db *Database) put(k tableKey, id uint64, data []byte) {
	t := db.tables[k]
	if t == nil {
		t = newTable()
		db.tables[k] = t
		db.record(undoEntry{key: k, created: true})
	}
	prior, had := t.rows[id]
	db.record(undoEntry{key: k, id: id, prior: prior, had: had})
	t.store(id, append([]byte(nil), data...))
}

// erase deletes row id of table k, if present.
func (db *Database) erase(k tableKey, id uint64) {
	t := db.tables[k]
	if t == nil {
		return
	}
	prior, had := t.rows[id]
	if !had {
		return
	}
	db.record(undoEntry{key: k, id: id, prior: prior, had: true})
	t.remove(id)
}

// Store inserts or replaces a row.
func (db *Database) Store(code, scope, tab eos.Name, id uint64, data []byte) {
	db.put(tableKey{code, scope, tab}, id, data)
}

// Get returns the row with primary key id. The slice is the stored row
// itself: callers must not write to it. The undo journal keeps replaced
// rows by reference and relies on this.
func (db *Database) Get(code, scope, tab eos.Name, id uint64) ([]byte, bool) {
	t := db.tables[tableKey{code, scope, tab}]
	if t == nil {
		return nil, false
	}
	row, ok := t.rows[id]
	return row, ok
}

// Remove deletes the row with primary key id.
func (db *Database) Remove(code, scope, tab eos.Name, id uint64) {
	db.erase(tableKey{code, scope, tab}, id)
}

// DumpContract renders every row stored under code's tables in a
// canonical form: lines "scope/table/key=hex(payload)" sorted by scope,
// table and primary key. The ordering-dependence oracle compares these
// dumps across permuted transaction sequences, so the rendering must be
// a pure function of database content (map iteration order must not
// leak through).
func (db *Database) DumpContract(code eos.Name) string {
	var keys []tableKey
	for k := range db.tables {
		if k.Code == code {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Scope != keys[j].Scope {
			return keys[i].Scope < keys[j].Scope
		}
		return keys[i].Table < keys[j].Table
	})
	var sb strings.Builder
	for _, k := range keys {
		t := db.tables[k]
		for _, id := range t.keys {
			fmt.Fprintf(&sb, "%s/%s/%d=%x\n", k.Scope, k.Table, id, t.rows[id])
		}
	}
	return sb.String()
}

// Rows returns the number of rows in a table.
func (db *Database) Rows(code, scope, tab eos.Name) int {
	if t := db.tables[tableKey{code, scope, tab}]; t != nil {
		return len(t.keys)
	}
	return 0
}

// --- Iterator layer (db_* intrinsic semantics) ------------------------------

// iterRef is a resolved database iterator: a table plus a position.
type iterRef struct {
	key tableKey
	id  uint64
	end bool
}

// IterCache implements EOSIO's per-apply-context iterator handles:
// handles from 0 up index live rows (refs[handle]), handles from -2 down
// are per-table end sentinels (tables[-2-handle]), and -1 is "not found"
// where the table itself does not exist. A chain keeps one cache and
// resets it at every apply, so no handle outlives the apply that made it.
type IterCache struct {
	db     *Database
	refs   []iterRef  // row iterators, by handle
	tables []tableKey // end-iterator table registry
	// tindex maps a table to its index in tables.
	//wasai:localcache apply-local, reset at every apply
	tindex map[tableKey]int
}

// NewIterCache returns an iterator cache over db.
func NewIterCache(db *Database) *IterCache {
	return &IterCache{db: db, tindex: map[tableKey]int{}}
}

// reset invalidates every handle, keeping the cache's storage.
func (ic *IterCache) reset() {
	ic.refs = ic.refs[:0]
	ic.tables = ic.tables[:0]
	clear(ic.tindex)
}

const iterNotFound = -1

func (ic *IterCache) endHandle(k tableKey) int32 {
	idx, ok := ic.tindex[k]
	if !ok {
		idx = len(ic.tables)
		ic.tables = append(ic.tables, k)
		ic.tindex[k] = idx
	}
	return int32(-2 - idx)
}

func (ic *IterCache) add(k tableKey, id uint64) int32 {
	ic.refs = append(ic.refs, iterRef{key: k, id: id})
	return int32(len(ic.refs) - 1)
}

func (ic *IterCache) ref(handle int32) (iterRef, bool) {
	if handle < 0 || int(handle) >= len(ic.refs) {
		return iterRef{}, false
	}
	return ic.refs[handle], true
}

func (ic *IterCache) endTable(handle int32) (tableKey, bool) {
	idx := int(-2 - handle)
	if idx < 0 || idx >= len(ic.tables) {
		return tableKey{}, false
	}
	return ic.tables[idx], true
}

// Find implements db_find_i64.
func (ic *IterCache) Find(code, scope, tab eos.Name, id uint64) int32 {
	k := tableKey{code, scope, tab}
	t := ic.db.tables[k]
	if t == nil {
		return iterNotFound
	}
	if _, ok := t.rows[id]; !ok {
		return ic.endHandle(k)
	}
	return ic.add(k, id)
}

// End implements db_end_i64.
func (ic *IterCache) End(code, scope, tab eos.Name) int32 {
	k := tableKey{code, scope, tab}
	if ic.db.tables[k] == nil {
		return iterNotFound
	}
	return ic.endHandle(k)
}

// LowerBound implements db_lowerbound_i64.
func (ic *IterCache) LowerBound(code, scope, tab eos.Name, id uint64) int32 {
	k := tableKey{code, scope, tab}
	t := ic.db.tables[k]
	if t == nil {
		return iterNotFound
	}
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= id })
	if i == len(t.keys) {
		return ic.endHandle(k)
	}
	return ic.add(k, t.keys[i])
}

// Store implements db_store_i64, returning an iterator to the new row.
func (ic *IterCache) Store(scope eos.Name, tab eos.Name, code eos.Name, id uint64, data []byte) int32 {
	k := tableKey{code, scope, tab}
	ic.db.put(k, id, data)
	return ic.add(k, id)
}

// Get implements db_get_i64: returns the row bytes for a live iterator.
// As with Database.Get, callers must not write to the slice.
func (ic *IterCache) Get(handle int32) ([]byte, error) {
	r, ok := ic.ref(handle)
	if !ok {
		return nil, failure.Newf(failure.Trap, "chain: invalid db iterator %d", handle)
	}
	t := ic.db.tables[r.key]
	if t == nil {
		return nil, failure.Newf(failure.Trap, "chain: iterator %d references dropped table %s", handle, r.key)
	}
	row, ok := t.rows[r.id]
	if !ok {
		return nil, failure.Newf(failure.Trap, "chain: iterator %d references erased row %d", handle, r.id)
	}
	return row, nil
}

// Update implements db_update_i64.
func (ic *IterCache) Update(handle int32, data []byte) error {
	r, ok := ic.ref(handle)
	if !ok {
		return failure.Newf(failure.Trap, "chain: invalid db iterator %d", handle)
	}
	ic.db.put(r.key, r.id, data)
	return nil
}

// Remove implements db_remove_i64.
func (ic *IterCache) Remove(handle int32) error {
	r, ok := ic.ref(handle)
	if !ok {
		return failure.Newf(failure.Trap, "chain: invalid db iterator %d", handle)
	}
	ic.db.erase(r.key, r.id)
	return nil
}

// Next implements db_next_i64: it returns the next iterator and its
// primary key (0 at the end or on a bad handle).
func (ic *IterCache) Next(handle int32) (int32, uint64) {
	r, ok := ic.ref(handle)
	if !ok {
		return iterNotFound, 0
	}
	t := ic.db.tables[r.key]
	if t == nil {
		return iterNotFound, 0
	}
	i, found := t.find(r.id)
	if found {
		i++
	}
	if i >= len(t.keys) {
		return ic.endHandle(r.key), 0
	}
	id := t.keys[i]
	return ic.add(r.key, id), id
}

// Previous implements db_previous_i64.
func (ic *IterCache) Previous(handle int32) (int32, uint64) {
	if handle < iterNotFound {
		// End iterator: previous is the last row.
		k, ok := ic.endTable(handle)
		if !ok {
			return iterNotFound, 0
		}
		t := ic.db.tables[k]
		if t == nil || len(t.keys) == 0 {
			return iterNotFound, 0
		}
		id := t.keys[len(t.keys)-1]
		return ic.add(k, id), id
	}
	r, ok := ic.ref(handle)
	if !ok {
		return iterNotFound, 0
	}
	t := ic.db.tables[r.key]
	if t == nil {
		return iterNotFound, 0
	}
	i, _ := t.find(r.id)
	if i == 0 {
		return iterNotFound, 0
	}
	id := t.keys[i-1]
	return ic.add(r.key, id), id
}
