// Package symexec implements Symback, WASAI's symbolic backend (paper §3.4):
// an EOSVM simulator that replays runtime traces to build symbolic machine
// states, a memory model keyed on the concrete addresses captured in the
// trace (§3.4.1), direct symbolic initialization of action-function inputs
// following the EOSIO calling convention (§3.4.2, Table 2), the operational
// semantics of Table 3 (§3.4.3), and constraint flipping for adaptive seed
// generation (§3.4.4).
package symexec

import (
	"fmt"

	"repro/internal/symbolic"
	"repro/internal/wasm"
)

// Memory is the §3.4.1 memory model: a byte-granular array (the Z3
// Store/Select analogue) addressed by the *concrete* addresses read from
// runtime traces. The action's inputs (§3.4.2) are laid out as regions
// whose bytes are built on first load; loads of bytes neither stored nor
// covered by an input resolve to symbolic load objects ⟨a, s⟩ — fresh
// variables registered so that repeated loads of the same unknown cell
// agree.
type Memory struct {
	ctx   *symbolic.Ctx
	bytes map[uint32]*symbolic.Expr
	// inputs are the input regions, oldest first. Every store is newer
	// than every input, so a byte in bytes always wins over a region.
	inputs []inputRegion
	// loadObjects counts the symbolic load objects created (evaluation stat).
	loadObjects int
}

// inputKind names what an input region holds.
type inputKind uint8

const (
	inputAmount  inputKind = iota // an asset's amount half, p<i>.amount
	inputSymbol                   // an asset's symbol half, p<i>.symbol
	inputStrLen                   // a string's length byte (a constant)
	inputStrByte                  // a string's content, p<i>[j] at base+j
)

// inputRegion is one input laid out at [base, base+size) (mod 2^32).
type inputRegion struct {
	base, size uint32
	kind       inputKind
	param      int
	strLen     uint64 // the length an inputStrLen region holds
}

// NewMemory returns an empty memory model over ctx.
func NewMemory(ctx *symbolic.Ctx) *Memory {
	return &Memory{ctx: ctx, bytes: map[uint32]*symbolic.Expr{}}
}

// Reset empties the memory for the next replay, keeping its storage.
func (m *Memory) Reset() {
	clear(m.bytes)
	m.inputs = m.inputs[:0]
	m.loadObjects = 0
}

// inputAsset lays out asset parameter i at ptr: amount, then symbol.
func (m *Memory) inputAsset(ptr uint32, i int) {
	m.inputs = append(m.inputs,
		inputRegion{base: ptr, size: 8, kind: inputAmount, param: i},
		inputRegion{base: ptr + 8, size: 8, kind: inputSymbol, param: i})
}

// inputString lays out string parameter i of length n at ptr: one length
// byte (concrete — mutation preserves length), then n content bytes.
func (m *Memory) inputString(ptr uint32, i, n int) {
	m.inputs = append(m.inputs, inputRegion{base: ptr, size: 1, kind: inputStrLen, param: i, strLen: uint64(n)})
	if n > 0 {
		m.inputs = append(m.inputs, inputRegion{base: ptr + 1, size: uint32(n), kind: inputStrByte, param: i})
	}
}

// inputByte builds byte a from the newest input region covering it, or
// returns nil when none does.
func (m *Memory) inputByte(a uint32) *symbolic.Expr {
	for i := len(m.inputs) - 1; i >= 0; i-- {
		in := &m.inputs[i]
		off := a - in.base
		if off >= in.size {
			continue
		}
		lo := uint8(8 * off)
		switch in.kind {
		case inputAmount:
			return m.ctx.Extract(m.ctx.Var(VarAmount(in.param), 64), lo+7, lo)
		case inputSymbol:
			return m.ctx.Extract(m.ctx.Var(VarSymbol(in.param), 64), lo+7, lo)
		case inputStrLen:
			return m.ctx.Const(in.strLen, 8)
		default:
			return m.ctx.Var(VarStrByte(in.param, int(off)), 8)
		}
	}
	return nil
}

// Store writes the low size bytes of val at addr (little-endian), splitting
// the expression into byte vectors as §3.4.1 describes.
func (m *Memory) Store(addr uint32, size int, val *symbolic.Expr) {
	for i := 0; i < size; i++ {
		lo := uint8(8 * i)
		m.bytes[addr+uint32(i)] = m.ctx.Extract(val, lo+7, lo)
	}
}

// StoreByte writes one 8-bit expression.
func (m *Memory) StoreByte(addr uint32, b *symbolic.Expr) {
	m.bytes[addr] = b
}

// Load reads size bytes at addr and concatenates them into one expression
// of width 8*size. Bytes never stored come from the input covering them,
// or else become symbolic load objects.
func (m *Memory) Load(addr uint32, size int) *symbolic.Expr {
	var out *symbolic.Expr
	for i := size - 1; i >= 0; i-- {
		a := addr + uint32(i)
		b, ok := m.bytes[a]
		if !ok {
			if b = m.inputByte(a); b == nil {
				// Symbolic load object ⟨a, 1⟩.
				b = m.ctx.Var(fmt.Sprintf("mem[%d]", a), 8)
				m.loadObjects++
			}
			m.bytes[a] = b
		}
		if out == nil {
			out = b
		} else {
			out = m.ctx.Concat(out, b)
		}
	}
	return out
}

// LoadObjects returns how many symbolic load objects were materialized.
func (m *Memory) LoadObjects() int { return m.loadObjects }

// LoadOp applies the full semantics of a Wasm load opcode at the concrete
// address: read MemBytes bytes, then zero/sign-extend to the result width.
func (m *Memory) LoadOp(op wasm.Opcode, addr uint32) (*symbolic.Expr, error) {
	n := op.MemBytes()
	if n == 0 {
		return nil, fmt.Errorf("symexec: %s is not a load", op.Name())
	}
	raw := m.Load(addr, n)
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load:
		return raw, nil
	case wasm.OpI64Load, wasm.OpF64Load:
		return raw, nil
	case wasm.OpI32Load8U, wasm.OpI32Load16U:
		return m.ctx.ZExt(raw, 32), nil
	case wasm.OpI32Load8S, wasm.OpI32Load16S:
		return m.ctx.SExt(raw, 32), nil
	case wasm.OpI64Load8U, wasm.OpI64Load16U, wasm.OpI64Load32U:
		return m.ctx.ZExt(raw, 64), nil
	case wasm.OpI64Load8S, wasm.OpI64Load16S, wasm.OpI64Load32S:
		return m.ctx.SExt(raw, 64), nil
	default:
		return nil, fmt.Errorf("symexec: unhandled load %s", op.Name())
	}
}

// StoreOp applies the full semantics of a Wasm store opcode at the concrete
// address: truncate val to the store width and write the bytes.
func (m *Memory) StoreOp(op wasm.Opcode, addr uint32, val *symbolic.Expr) error {
	n := op.MemBytes()
	if n == 0 {
		return fmt.Errorf("symexec: %s is not a store", op.Name())
	}
	w := uint8(8 * n)
	if val.Width > w {
		val = m.ctx.Truncate(val, w)
	} else if val.Width < w {
		val = m.ctx.ZExt(val, w)
	}
	m.Store(addr, n, val)
	return nil
}
