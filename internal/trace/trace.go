// Package trace defines the runtime-trace event model of WASAI.
//
// A trace is the sequence of Wasm instructions a contract actually executed,
// together with the concrete operands the symbolic backend cannot derive
// statically: memory addresses, branch conditions, indirect-call table
// indices, and host/library-call returns (paper §3.1, §3.3.1). Events are
// emitted by the instrumentation hooks injected into contract bytecode and
// collected per contract, so traces from auxiliary contracts (for example
// eosio.token) never pollute the analysis of the fuzzing target.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/eos"
	"repro/internal/wasm"
)

// HookKind identifies which low-level hook produced an event. The five
// function-invocation hooks follow Table 1 of the paper.
type HookKind byte

// Hook kinds.
const (
	HookInstr     HookKind = iota + 1 // generic instruction site
	HookCond                          // br_if / if: condition operand
	HookBrTable                       // br_table: index operand
	HookMem                           // load/store: concrete address operand
	HookCallPre                       // before an invocation: callee (or table index)
	HookCall                          // the invocation itself (resolved callee)
	HookCallPost                      // after the invocation: returned value
	HookFuncBegin                     // begin of the invoked function's body
	HookFuncEnd                       // end of the invoked function's body
	HookCmp                           // i64.eq / i64.ne: one event per operand (a then b)
	HookParam                         // function parameter value at function_begin
)

// String names the hook kind.
func (k HookKind) String() string {
	switch k {
	case HookInstr:
		return "instr"
	case HookCond:
		return "cond"
	case HookBrTable:
		return "br_table"
	case HookMem:
		return "mem"
	case HookCallPre:
		return "call_pre"
	case HookCall:
		return "call"
	case HookCallPost:
		return "call_post"
	case HookFuncBegin:
		return "function_begin"
	case HookFuncEnd:
		return "function_end"
	case HookCmp:
		return "cmp"
	case HookParam:
		return "param"
	default:
		return fmt.Sprintf("hook(%d)", byte(k))
	}
}

// Event is one trace record τ(i, p⃗): the executed instruction i (located by
// function index and pc in the instrumented module) and the captured
// operands p⃗. The two one-byte fields lead, so an Event packs into 24
// bytes.
type Event struct {
	Kind HookKind
	Op   wasm.Opcode // static opcode at the site (zero for begin/end labels)
	Func uint32      // function index in the instrumented module
	PC   int         // instruction index within the function body
	// Operand carries the captured runtime value: branch condition,
	// concrete memory address, table index, callee function index, or a
	// returned value, depending on Kind.
	Operand uint64
}

// Trace is the per-action event sequence of one contract.
type Trace struct {
	Contract eos.Name
	Action   eos.Name
	Events   []Event
}

// Collector accumulates traces during transaction execution and exports
// them when an action finishes (the paper's finalize_trace point). A
// finished trace owns its event buffer: AppendTraces hands it over with
// the trace, and the collector writes to it again only once it comes back
// through Recycle. The collector's own lists keep their storage, so a
// steady Emit/Finalize/AppendTraces/Recycle cycle allocates nothing.
type Collector struct {
	current  []Event // the in-flight trace
	finished []Trace
	// spare holds buffers handed back by Recycle, at most maxSpare.
	spare [][]Event
}

// maxSpare bounds the recycled buffers a collector holds.
const maxSpare = 8

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends an event to the in-flight action trace.
func (c *Collector) Emit(ev Event) { c.current = append(c.current, ev) }

// Finalize closes the in-flight trace, tagging it with the contract and
// action, and makes it available via Traces. Mirrors
// apply_context::finalize_trace in Nodeos. The trace takes the collector's
// buffer, spare capacity included, and the collector never writes to it
// again unless it comes back through Recycle; the next trace goes to a
// recycled buffer, or to a new one of the same capacity.
func (c *Collector) Finalize(contract, action eos.Name) {
	if len(c.current) == 0 {
		return
	}
	c.finished = append(c.finished, Trace{Contract: contract, Action: action, Events: c.current})
	if n := len(c.spare); n > 0 {
		c.current = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	} else {
		c.current = make([]Event, 0, cap(c.current))
	}
}

// Recycle hands a finished trace's event buffer back for a later trace to
// overwrite. The caller must hold the only reference to the buffer: once
// recycled, its contents are undefined. A collector keeps at most maxSpare
// buffers and drops the rest.
func (c *Collector) Recycle(events []Event) {
	if cap(events) > 0 && len(c.spare) < maxSpare {
		c.spare = append(c.spare, events[:0])
	}
}

// Traces returns the finished traces collected so far.
func (c *Collector) Traces() []Trace { return c.finished }

// AppendTraces appends the finished traces, and with them their event
// buffers, to dst and returns the extended list. The collector's list is
// emptied but keeps its storage.
func (c *Collector) AppendTraces(dst []Trace) []Trace {
	dst = append(dst, c.finished...)
	clear(c.finished)
	c.finished = c.finished[:0]
	return dst
}

// --- Offline files ----------------------------------------------------------
//
// The paper redirects traces to offline files once an EOSVM thread finishes.
// The binary layout is a simple length-prefixed record stream.

const fileMagic = uint32(0x57415341) // "WASA"

// Write serializes traces to w in the offline-file format.
func Write(w io.Writer, traces []Trace) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(traces)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, tr := range traces {
		var th [20]byte
		binary.LittleEndian.PutUint64(th[0:], uint64(tr.Contract))
		binary.LittleEndian.PutUint64(th[8:], uint64(tr.Action))
		binary.LittleEndian.PutUint32(th[16:], uint32(len(tr.Events)))
		if _, err := bw.Write(th[:]); err != nil {
			return fmt.Errorf("trace: write trace header: %w", err)
		}
		var rec [22]byte
		for _, ev := range tr.Events {
			rec[0] = byte(ev.Kind)
			rec[1] = byte(ev.Op)
			binary.LittleEndian.PutUint32(rec[2:], ev.Func)
			binary.LittleEndian.PutUint32(rec[6:], uint32(ev.PC))
			binary.LittleEndian.PutUint64(rec[10:], ev.Operand)
			binary.LittleEndian.PutUint32(rec[18:], 0) // reserved
			if _, err := bw.Write(rec[:]); err != nil {
				return fmt.Errorf("trace: write event: %w", err)
			}
		}
	}
	return bw.Flush()
}

// Read deserializes traces from the offline-file format.
func Read(r io.Reader) ([]Trace, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	traces := make([]Trace, 0, n)
	for i := uint32(0); i < n; i++ {
		var th [20]byte
		if _, err := io.ReadFull(br, th[:]); err != nil {
			return nil, fmt.Errorf("trace: read trace %d header: %w", i, err)
		}
		tr := Trace{
			Contract: eos.Name(binary.LittleEndian.Uint64(th[0:])),
			Action:   eos.Name(binary.LittleEndian.Uint64(th[8:])),
		}
		ne := binary.LittleEndian.Uint32(th[16:])
		tr.Events = make([]Event, 0, ne)
		var rec [22]byte
		for j := uint32(0); j < ne; j++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("trace: read event %d/%d: %w", i, j, err)
			}
			tr.Events = append(tr.Events, Event{
				Kind:    HookKind(rec[0]),
				Op:      wasm.Opcode(rec[1]),
				Func:    binary.LittleEndian.Uint32(rec[2:]),
				PC:      int(binary.LittleEndian.Uint32(rec[6:])),
				Operand: binary.LittleEndian.Uint64(rec[10:]),
			})
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// CalledFuncs returns the ordered list of resolved callee function indices
// (the paper's id⃗ function-call chain) observed in the trace.
func (t *Trace) CalledFuncs() []uint32 {
	var ids []uint32
	for _, ev := range t.Events {
		if ev.Kind == HookCall {
			ids = append(ids, uint32(ev.Operand))
		}
	}
	return ids
}

// Fingerprint returns a 64-bit FNV-1a-style mix of the event sequence:
// every event's kind, opcode, site and operand, in order (not the contract
// or action). It picks a bucket, it does not identify a trace: a consumer
// that must be exact compares the events of equal fingerprints too. Not
// cryptographic, and computed on demand, so Trace carries no extra field.
func (t *Trace) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, ev := range t.Events {
		h = (h ^ (uint64(ev.Kind)<<40 | uint64(ev.Op)<<32 | uint64(ev.Func))) * prime64
		h = (h ^ uint64(ev.PC)) * prime64
		h = (h ^ ev.Operand) * prime64
	}
	return h
}

// Branches returns the distinct (site, direction) pairs exercised — the
// branch-coverage unit of RQ1.
func (t *Trace) Branches() map[BranchKey]struct{} {
	out := make(map[BranchKey]struct{})
	t.AddBranches(out)
	return out
}

// AddBranches adds the trace's branches (see Branches) to set and returns
// how many of them set did not hold yet.
func (t *Trace) AddBranches(set map[BranchKey]struct{}) int {
	before := len(set)
	for _, ev := range t.Events {
		switch ev.Kind {
		case HookCond:
			dir := uint8(0)
			if ev.Operand != 0 {
				dir = 1
			}
			set[BranchKey{Func: ev.Func, PC: ev.PC, Dir: dir}] = struct{}{}
		case HookBrTable:
			// Each distinct selected arm counts as a distinct branch.
			set[BranchKey{Func: ev.Func, PC: ev.PC, Dir: uint8(ev.Operand % 251)}] = struct{}{}
		}
	}
	return len(set) - before
}

// BranchKey identifies one conditional-branch direction at one site.
type BranchKey struct {
	Func uint32
	PC   int
	Dir  uint8
}
