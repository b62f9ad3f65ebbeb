package chain

import (
	"strings"
	"testing"

	"repro/internal/eos"
	"repro/internal/wasm"
)

// hostAPIModule builds a contract whose apply() exercises the host API
// surface directly: prints, db store/find/get/next, memcpy/memset, tapos,
// current_receiver, and send_inline.
func hostAPIModule(t *testing.T) *wasm.Module {
	t.Helper()
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	sig := func(params []wasm.ValType, results []wasm.ValType) uint32 {
		return m.AddType(wasm.FuncType{Params: params, Results: results})
	}
	i32, i64 := wasm.I32, wasm.I64
	imports := []struct {
		name string
		ti   uint32
	}{
		{"prints_l", sig([]wasm.ValType{i32, i32}, nil)},                                         // 0
		{"printi", sig([]wasm.ValType{i64}, nil)},                                                // 1
		{"db_store_i64", sig([]wasm.ValType{i64, i64, i64, i64, i32, i32}, []wasm.ValType{i32})}, // 2
		{"db_find_i64", sig([]wasm.ValType{i64, i64, i64, i64}, []wasm.ValType{i32})},            // 3
		{"db_get_i64", sig([]wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})},                  // 4
		{"db_next_i64", sig([]wasm.ValType{i32, i32}, []wasm.ValType{i32})},                      // 5
		{"current_receiver", sig(nil, []wasm.ValType{i64})},                                      // 6
		{"tapos_block_num", sig(nil, []wasm.ValType{i32})},                                       // 7
		{"memset", sig([]wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})},                      // 8
		{"memcpy", sig([]wasm.ValType{i32, i32, i32}, []wasm.ValType{i32})},                      // 9
		{"eosio_assert", sig([]wasm.ValType{i32, i32}, nil)},                                     // 10
	}
	for _, imp := range imports {
		m.Imports = append(m.Imports, wasm.Import{Module: "env", Name: imp.name, Kind: wasm.ExternalFunc, TypeIndex: imp.ti})
	}
	tab := eos.MustName("rows")
	applyTI := sig([]wasm.ValType{i64, i64, i64}, nil)
	m.Funcs = []uint32{applyTI}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	m.Data = []wasm.DataSegment{{Offset: []wasm.Instr{wasm.I32Const(64)}, Data: []byte("hi!")}}

	body := []wasm.Instr{
		// prints_l("hi!", 3)
		wasm.I32Const(64), wasm.I32Const(3), wasm.Call(0),
		// printi(tapos_block_num)
		wasm.Call(7), wasm.Op0(wasm.OpI64ExtendI32U), wasm.Call(1),
		// memset(128, 0xAB, 8); memcpy(136, 128, 8)
		wasm.I32Const(128), wasm.I32Const(0xAB), wasm.I32Const(8), wasm.Call(8), wasm.Drop(),
		wasm.I32Const(136), wasm.I32Const(128), wasm.I32Const(8), wasm.Call(9), wasm.Drop(),
		// db_store(scope=receiver, table, payer=receiver, id=11, data=136, len=8)
		wasm.Call(6), i64Name2(tab), wasm.Call(6), wasm.I64Const(11),
		wasm.I32Const(136), wasm.I32Const(8), wasm.Call(2), wasm.Drop(),
		// db_store id=22 from the same buffer
		wasm.Call(6), i64Name2(tab), wasm.Call(6), wasm.I64Const(22),
		wasm.I32Const(136), wasm.I32Const(8), wasm.Call(2), wasm.Drop(),
		// it = db_find(receiver, receiver, table, 11); assert(it >= 0)
		wasm.Call(6), wasm.Call(6), i64Name2(tab), wasm.I64Const(11), wasm.Call(3),
		wasm.LocalTee(3),
		wasm.I32Const(0), wasm.Op0(wasm.OpI32GeS), wasm.I32Const(64), wasm.Call(10),
		// n = db_get(it, 256, 8); assert(n == 8)
		wasm.LocalGet(3), wasm.I32Const(256), wasm.I32Const(8), wasm.Call(4),
		wasm.I32Const(8), wasm.Op0(wasm.OpI32Eq), wasm.I32Const(64), wasm.Call(10),
		// assert(mem[256] == 0xAB)
		wasm.I32Const(256), wasm.Load(wasm.OpI32Load8U, 0),
		wasm.I32Const(0xAB), wasm.Op0(wasm.OpI32Eq), wasm.I32Const(64), wasm.Call(10),
		// next = db_next(it, 512); (writes pk 22 to mem[512])
		wasm.LocalGet(3), wasm.I32Const(512), wasm.Call(5),
		wasm.I32Const(0), wasm.Op0(wasm.OpI32GeS), wasm.I32Const(64), wasm.Call(10),
		wasm.I32Const(512), wasm.Load(wasm.OpI64Load, 0),
		wasm.I64Const(22), wasm.Op0(wasm.OpI64Eq), wasm.I32Const(64), wasm.Call(10),
		wasm.End(),
	}
	m.Code = []wasm.Code{{
		Locals: []wasm.LocalDecl{{Count: 1, Type: wasm.I32}},
		Body:   body,
	}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 11}}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("host API module invalid: %v", err)
	}
	return m
}

func i64Name2(n eos.Name) wasm.Instr { return wasm.I64Const(int64(uint64(n))) }

func TestHostAPISurface(t *testing.T) {
	bc := New()
	m := hostAPIModule(t)
	ctr := eos.MustName("apitest")
	if err := bc.DeployModule(ctr, mustCompile(t, m), nil, nil); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	rcpt := bc.PushTransaction(Transaction{Actions: []Action{{
		Account: ctr, Name: eos.MustName("go"),
		Authorization: auth(alice),
	}}})
	if rcpt.Err != nil {
		t.Fatalf("apply failed: %v\nconsole: %s", rcpt.Err, rcpt.Console)
	}
	if !strings.HasPrefix(rcpt.Console, "hi!") {
		t.Errorf("console = %q, want hi! prefix", rcpt.Console)
	}
	// printi of tapos_block_num follows the greeting.
	if !strings.Contains(rcpt.Console, "1000") {
		t.Errorf("console missing tapos output: %q", rcpt.Console)
	}
	// The DB writes persisted.
	if n := bc.DB().Rows(ctr, ctr, eos.MustName("rows")); n != 2 {
		t.Errorf("rows = %d, want 2", n)
	}
	row, ok := bc.DB().Get(ctr, ctr, eos.MustName("rows"), 11)
	if !ok || len(row) != 8 || row[0] != 0xAB {
		t.Errorf("row 11 = %x %v", row, ok)
	}
	// DB ops were recorded for the DBG.
	var writes, reads int
	for _, op := range rcpt.DBOps {
		if op.Kind == DBWrite {
			writes++
		} else {
			reads++
		}
	}
	if writes < 2 || reads < 1 {
		t.Errorf("dbops writes=%d reads=%d", writes, reads)
	}
}
