package exec

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/wasm"
)

// PageSize is the WebAssembly linear-memory page size.
const PageSize = 65536

// HostFunc is a native implementation of an imported function. Arguments
// arrive in declaration order as raw 64-bit values (i32 zero-extended,
// floats as IEEE bits); results are returned the same way. args may be a
// view of the caller's operand stack or of a VM-owned buffer: it is valid
// only during the call, and a host function must not keep it. A host
// function may return vm.Result(v), a view of a slot the VM owns, for a
// single result: both engines copy the results out before they run
// anything else, so a host function must not keep that slice either.
type HostFunc func(vm *VM, args []uint64) ([]uint64, error)

// HostModule is a named collection of host functions, keyed by import name.
type HostModule map[string]HostFunc

// Resolver maps import module names to host modules.
type Resolver map[string]HostModule

// funcDef is a resolved entry of the function index space.
type funcDef struct {
	typ   wasm.FuncType
	host  HostFunc   // non-nil for imported functions
	code  *wasm.Code // non-nil for local functions
	meta  wasm.ControlMeta
	name  string // debug name: "module.name" for imports, name-section otherwise
	index uint32
}

// CompiledModule holds everything instantiation derives from a module
// alone: the function index space with per-function control metadata,
// the initial globals, the table after element initialization and the
// memory image after data initialization. The decoded IR of the fast
// engine is compiled lazily, once, on the first fast VM. A CompiledModule
// is immutable after Compile (the lazy IR is guarded by a sync.Once), so
// one value can back any number of instances on any goroutine.
type CompiledModule struct {
	module  *wasm.Module
	funcs   []funcDef // imports have no host binding; Link supplies it
	globals []uint64
	table   []int32 // function indices; -1 marks an uninitialized element
	mem     []byte
	memMax  uint32 // in pages; 0 means unlimited

	progOnce sync.Once
	prog     *irProgram
}

// Instance is a compiled module linked against host functions, with its
// own memory and globals. It reads the table from the compiled module: no
// instruction of the supported feature set writes a table.
type Instance struct {
	compiled *CompiledModule
	funcs    []funcDef
	globals  []uint64
	mem      []byte
	// dirtyLo and dirtyHi bound the memory bytes written since Link or
	// the last Reset; the range is empty (dirtyLo > dirtyHi) when none
	// were. Every write path marks it: both engines' stores and
	// WriteMemory.
	dirtyLo, dirtyHi uint64

	// MaxCallDepth bounds recursion (default 250, matching EOSVM).
	MaxCallDepth int
}

// Compile derives the module-level execution state of m and runs
// data/element segment initialization into the compiled images.
func Compile(m *wasm.Module) (*CompiledModule, error) {
	c := &CompiledModule{module: m}

	for _, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternalFunc:
			if int(imp.TypeIndex) >= len(m.Types) {
				return nil, fmt.Errorf("exec: import %q.%q type index out of range", imp.Module, imp.Name)
			}
			c.funcs = append(c.funcs, funcDef{
				typ:   m.Types[imp.TypeIndex],
				name:  imp.Module + "." + imp.Name,
				index: uint32(len(c.funcs)),
			})
		case wasm.ExternalGlobal:
			return nil, fmt.Errorf("exec: global imports are not supported (%q.%q)", imp.Module, imp.Name)
		case wasm.ExternalMemory:
			mem := imp.Memory
			c.mem = make([]byte, int(mem.Limits.Min)*PageSize)
			if mem.Limits.HasMax {
				c.memMax = mem.Limits.Max
			}
		case wasm.ExternalTable:
			c.table = newTable(imp.Table.Limits.Min)
		}
	}

	imported := len(c.funcs)
	for i, ti := range m.Funcs {
		if int(ti) >= len(m.Types) {
			return nil, fmt.Errorf("exec: func %d type index out of range", i)
		}
		code := &m.Code[i]
		meta, err := wasm.AnalyzeControl(code.Body)
		if err != nil {
			return nil, fmt.Errorf("exec: func %d: %w", imported+i, err)
		}
		idx := uint32(imported + i)
		c.funcs = append(c.funcs, funcDef{
			typ:   m.Types[ti],
			code:  code,
			meta:  meta,
			name:  m.FuncNames[idx],
			index: idx,
		})
	}

	for _, t := range m.Tables {
		c.table = newTable(t.Limits.Min)
	}
	for _, mm := range m.Memories {
		c.mem = make([]byte, int(mm.Limits.Min)*PageSize)
		if mm.Limits.HasMax {
			c.memMax = mm.Limits.Max
		}
	}

	for _, g := range m.Globals {
		v, err := c.evalConst(g.Init)
		if err != nil {
			return nil, fmt.Errorf("exec: global init: %w", err)
		}
		c.globals = append(c.globals, v)
	}

	for i, el := range m.Elems {
		off, err := c.evalConst(el.Offset)
		if err != nil {
			return nil, fmt.Errorf("exec: elem %d offset: %w", i, err)
		}
		base := int(uint32(off))
		if base+len(el.Funcs) > len(c.table) {
			return nil, fmt.Errorf("exec: elem %d writes outside table (base %d, %d funcs, table %d)", i, base, len(el.Funcs), len(c.table))
		}
		for j, fi := range el.Funcs {
			if int(fi) >= len(c.funcs) {
				return nil, fmt.Errorf("exec: elem %d entry %d: function %d out of range", i, j, fi)
			}
			c.table[base+j] = int32(fi)
		}
	}

	for i, seg := range m.Data {
		off, err := c.evalConst(seg.Offset)
		if err != nil {
			return nil, fmt.Errorf("exec: data %d offset: %w", i, err)
		}
		base := int(uint32(off))
		if base+len(seg.Data) > len(c.mem) {
			return nil, fmt.Errorf("exec: data %d writes outside memory (base %d, %d bytes, memory %d)", i, base, len(seg.Data), len(c.mem))
		}
		copy(c.mem[base:], seg.Data)
	}

	return c, nil
}

// Link binds the imported functions to r and returns a fresh instance
// with its own copy of the memory image and globals. The start function,
// if any, is NOT run (EOSIO contracts do not use it); call Invoke
// explicitly.
func (c *CompiledModule) Link(r Resolver) (*Instance, error) {
	funcs := append([]funcDef(nil), c.funcs...)
	i := 0
	for _, imp := range c.module.Imports {
		if imp.Kind != wasm.ExternalFunc {
			continue
		}
		hm, ok := r[imp.Module]
		if !ok {
			return nil, fmt.Errorf("exec: unresolved import module %q", imp.Module)
		}
		fn, ok := hm[imp.Name]
		if !ok {
			return nil, fmt.Errorf("exec: unresolved import %q.%q", imp.Module, imp.Name)
		}
		funcs[i].host = fn
		i++
	}
	return &Instance{
		compiled:     c,
		funcs:        funcs,
		globals:      append([]uint64(nil), c.globals...),
		mem:          append([]byte(nil), c.mem...),
		dirtyLo:      clean,
		MaxCallDepth: 250,
	}, nil
}

// Module returns the compiled module's source.
func (c *CompiledModule) Module() *wasm.Module { return c.module }

// program returns the decoded IR, compiling it on first use.
func (c *CompiledModule) program() *irProgram {
	c.progOnce.Do(func() { c.prog = compileModule(c.module) })
	return c.prog
}

// clean is dirtyLo when no byte has been written.
const clean = math.MaxUint64

// markDirty widens the dirty range to cover [lo, hi).
func (inst *Instance) markDirty(lo, hi uint64) {
	if lo < inst.dirtyLo {
		inst.dirtyLo = lo
	}
	if hi > inst.dirtyHi {
		inst.dirtyHi = hi
	}
}

// Reset returns the instance to the state Link produced: memory length
// and bytes from the compiled image, globals at their initial values.
// Host bindings, the table and MaxCallDepth are kept. Reset reuses the
// memory buffer (see Memory) and copies back only the dirty range: bytes
// past the compiled length are cut off, and memory.grow zeroes the pages
// it appends.
func (inst *Instance) Reset() {
	img := inst.compiled.mem
	inst.mem = inst.mem[:len(img)]
	if hi := min(inst.dirtyHi, uint64(len(img))); inst.dirtyLo < hi {
		copy(inst.mem[inst.dirtyLo:hi], img[inst.dirtyLo:hi])
	}
	inst.dirtyLo, inst.dirtyHi = clean, 0
	copy(inst.globals, inst.compiled.globals)
}

func newTable(n uint32) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

func (c *CompiledModule) evalConst(expr []wasm.Instr) (uint64, error) {
	if len(expr) != 1 {
		return 0, fmt.Errorf("unsupported constant expression of length %d", len(expr))
	}
	in := expr[0]
	switch in.Op {
	case wasm.OpI32Const:
		return uint64(uint32(in.I32())), nil
	case wasm.OpI64Const:
		return in.Imm, nil
	case wasm.OpF32Const, wasm.OpF64Const:
		return in.Imm, nil
	case wasm.OpGlobalGet:
		if int(in.A) >= len(c.globals) {
			return 0, fmt.Errorf("global.get %d out of range in constant expression", in.A)
		}
		return c.globals[in.A], nil
	default:
		return 0, fmt.Errorf("unsupported opcode %s in constant expression", in.Op.Name())
	}
}

// Module returns the underlying module.
func (inst *Instance) Module() *wasm.Module { return inst.compiled.module }

// Memory returns the linear memory backing store for reading; bounds are
// the caller's responsibility. Callers must not write to it: writes go
// through WriteMemory, which marks the range Reset restores. The slice
// aliases the instance's buffer, which memory.grow may replace and Reset
// overwrites for the next run, so a caller must copy out any bytes it
// keeps beyond the current host call.
func (inst *Instance) Memory() []byte { return inst.mem }

// MemSize returns the memory size in bytes.
func (inst *Instance) MemSize() int { return len(inst.mem) }

// ViewMemory returns the n bytes at addr as a view of linear memory,
// trapping on out-of-bounds. The view is valid only during the current
// host call, as Memory's is, and must not be written: a caller that keeps
// the bytes copies them.
func (inst *Instance) ViewMemory(addr, n uint32) ([]byte, error) {
	end := uint64(addr) + uint64(n)
	if end > uint64(len(inst.mem)) {
		return nil, &Trap{Kind: TrapMemoryOutOfBounds}
	}
	return inst.mem[addr:end:end], nil
}

// WriteMemory copies p into memory at addr, trapping on out-of-bounds.
func (inst *Instance) WriteMemory(addr uint32, p []byte) error {
	end := uint64(addr) + uint64(len(p))
	if end > uint64(len(inst.mem)) {
		return &Trap{Kind: TrapMemoryOutOfBounds}
	}
	copy(inst.mem[addr:end], p)
	inst.markDirty(uint64(addr), end)
	return nil
}

// TableGet returns the function index stored at table element i, or false
// when i is out of range or the element is uninitialized.
func (inst *Instance) TableGet(i uint32) (uint32, bool) {
	table := inst.compiled.table
	if int(i) >= len(table) || table[i] < 0 {
		return 0, false
	}
	return uint32(table[i]), true
}

// GlobalValue returns the current value of global idx.
func (inst *Instance) GlobalValue(idx uint32) (uint64, bool) {
	if int(idx) >= len(inst.globals) {
		return 0, false
	}
	return inst.globals[idx], true
}

// FuncName returns a printable name for the function index.
func (inst *Instance) FuncName(idx uint32) string {
	if int(idx) < len(inst.funcs) && inst.funcs[idx].name != "" {
		return inst.funcs[idx].name
	}
	return fmt.Sprintf("func[%d]", idx)
}

// grow implements memory.grow, returning the previous size in pages or -1.
func (inst *Instance) grow(pages uint32) int32 {
	cur := uint32(len(inst.mem) / PageSize)
	if pages == 0 {
		return int32(cur)
	}
	next := uint64(cur) + uint64(pages)
	if limit := inst.compiled.memMax; limit != 0 && next > uint64(limit) {
		return -1
	}
	if next > 65536 { // 4GiB hard cap
		return -1
	}
	inst.mem = append(inst.mem, make([]byte, int(pages)*PageSize)...)
	return int32(cur)
}

// f32 helpers shared by the VM.
func f32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
