package chain

import (
	"encoding/binary"

	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/wasm/exec"
)

// Host API intrinsic names (the subset of the EOSIO C API the paper's
// detectors reason about, plus the memory/print helpers contracts need).
const (
	APIRequireAuth      = "require_auth"
	APIRequireAuth2     = "require_auth2"
	APIHasAuth          = "has_auth"
	APIRequireRecipient = "require_recipient"
	APIIsAccount        = "is_account"
	APICurrentReceiver  = "current_receiver"
	APIEosioAssert      = "eosio_assert"
	APIReadActionData   = "read_action_data"
	APIActionDataSize   = "action_data_size"
	APISendInline       = "send_inline"
	APISendDeferred     = "send_deferred"
	APITaposBlockNum    = "tapos_block_num"
	APITaposBlockPrefix = "tapos_block_prefix"
	APICurrentTime      = "current_time"
	APIDBStore          = "db_store_i64"
	APIDBFind           = "db_find_i64"
	APIDBGet            = "db_get_i64"
	APIDBUpdate         = "db_update_i64"
	APIDBRemove         = "db_remove_i64"
	APIDBNext           = "db_next_i64"
	APIDBPrevious       = "db_previous_i64"
	APIDBLowerbound     = "db_lowerbound_i64"
	APIDBEnd            = "db_end_i64"
	APIPrints           = "prints"
	APIPrintsL          = "prints_l"
	APIPrintI           = "printi"
	APIPrintN           = "printn"
	APIMemcpy           = "memcpy"
	APIMemset           = "memset"
	APIAbort            = "abort"
)

// PermissionAPIs is the set of authorization-checking intrinsics (paper §2.2).
var PermissionAPIs = map[string]bool{
	APIRequireAuth:  true,
	APIRequireAuth2: true,
	APIHasAuth:      true,
}

// EffectAPIs is the set of side-effect intrinsics the MissAuth oracle guards.
var EffectAPIs = map[string]bool{
	APISendInline:   true,
	APISendDeferred: true,
	APIDBStore:      true,
	APIDBUpdate:     true,
	APIDBRemove:     true,
}

// BlockinfoAPIs is the set of blockchain-state intrinsics the BlockinfoDep
// oracle flags.
var BlockinfoAPIs = map[string]bool{
	APITaposBlockNum:    true,
	APITaposBlockPrefix: true,
}

func ctxOf(vm *exec.VM) *Context {
	ctx, _ := vm.Context.(*Context)
	return ctx
}

// readCStr reads a NUL-terminated string from instance memory (bounded).
func readCStr(vm *exec.VM, ptr uint32) string {
	mem := vm.Instance().Memory()
	if int(ptr) >= len(mem) {
		return ""
	}
	end := int(ptr)
	for end < len(mem) && mem[end] != 0 && end-int(ptr) < 256 {
		end++
	}
	return string(mem[ptr:end])
}

// newEnv builds the "env" import module of the chain's Wasm deployments
// from its backend. The wasai.* instrumentation hooks and the fault
// injector stay at the chain layer: they are pipeline machinery, not
// personality semantics, so every backend gets them for free. Every env
// closure reads the apply context from the VM at call time, so one module
// serves every apply on the chain.
func (bc *Blockchain) newEnv() exec.HostModule {
	env := bc.backend.HostEnv(bc)
	// Interpose the fault injector ahead of every env intrinsic. It reads
	// bc.Faults at call time, not at link time, because fuzz.New arms
	// faults only after deploying the target. The wasai.* hook module is
	// left unwrapped: instrumentation callbacks are bookkeeping, not chain
	// semantics, and faulting them would perturb coverage rather than
	// model a host failure.
	for name, fn := range env {
		env[name] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
			if err := bc.Faults.HostCall(name); err != nil {
				return nil, err
			}
			return fn(vm, args)
		}
	}
	return env
}

// hooks is what the wasai.* logging imports of one deployment are bound
// to: the chain, whose collector receives the events, and the account's
// instrumentation site table (nil when its binary is not instrumented,
// which silences the hooks). Events reference original-module
// coordinates through the table.
type hooks struct {
	bc    *Blockchain
	name  eos.Name
	sites *instrument.SiteTable
}

// event appends the event of the hooked instruction at site.
func (h *hooks) event(kind trace.HookKind, site uint32, operand uint64) error {
	c := h.bc.Collector
	if c == nil || h.sites == nil {
		return nil
	}
	if int(site) >= len(h.sites.Sites) {
		return failure.Newf(failure.Trap, "chain: unknown hook site %d in %s", site, h.name)
	}
	s := &h.sites.Sites[site]
	c.Emit(trace.Event{Kind: kind, Func: s.Func, PC: int(s.PC), Op: s.Op, Operand: operand})
	return nil
}

// label appends a function-boundary or parameter event of function fn.
func (h *hooks) label(kind trace.HookKind, fn uint32, operand uint64) {
	if c := h.bc.Collector; c != nil && h.sites != nil {
		c.Emit(trace.Event{Kind: kind, Func: fn, Operand: operand})
	}
}

// hookModule implements the wasai.* logging imports the instrumenter
// injects, bound to the deployment of sites on the account name.
func (bc *Blockchain) hookModule(name eos.Name, sites *instrument.SiteTable) exec.HostModule {
	h := &hooks{bc: bc, name: name, sites: sites}
	param := func(_ *exec.VM, args []uint64) ([]uint64, error) {
		h.label(trace.HookParam, uint32(args[0]), args[1])
		return nil, nil
	}
	ret := func(_ *exec.VM, args []uint64) ([]uint64, error) {
		return nil, h.event(trace.HookCallPost, uint32(args[0]), args[1])
	}
	return exec.HostModule{
		instrument.HookLogSite: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			return nil, h.event(trace.HookInstr, uint32(args[0]), 0)
		},
		instrument.HookLogCond: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			return nil, h.event(trace.HookCond, uint32(args[0]), uint64(uint32(args[1])))
		},
		instrument.HookLogTable: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			return nil, h.event(trace.HookBrTable, uint32(args[0]), uint64(uint32(args[1])))
		},
		instrument.HookLogMem: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			return nil, h.event(trace.HookMem, uint32(args[0]), uint64(uint32(args[1])))
		},
		instrument.HookLogCmp: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			// Two operands: encode as two events (a then b) at the same site.
			if err := h.event(trace.HookCmp, uint32(args[0]), args[1]); err != nil {
				return nil, err
			}
			return nil, h.event(trace.HookCmp, uint32(args[0]), args[2])
		},
		instrument.HookLogCall: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			site, callee := uint32(args[0]), uint64(uint32(args[1]))
			if err := h.event(trace.HookCallPre, site, callee); err != nil {
				return nil, err
			}
			return nil, h.event(trace.HookCall, site, callee)
		},
		instrument.HookLogCallI: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			site, tblIdx := uint32(args[0]), uint32(args[1])
			if err := h.event(trace.HookCallPre, site, uint64(tblIdx)); err != nil || sites == nil {
				return nil, err
			}
			instrumented, ok := vm.Instance().TableGet(tblIdx)
			if !ok {
				return nil, nil // the call_indirect itself will trap
			}
			orig, ok := sites.OrigFunc(instrumented)
			if !ok {
				return nil, nil
			}
			return nil, h.event(trace.HookCall, site, uint64(orig))
		},
		instrument.HookLogRetV: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			return nil, h.event(trace.HookCallPost, uint32(args[0]), 0)
		},
		instrument.HookLogRetI: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			return nil, h.event(trace.HookCallPost, uint32(args[0]), uint64(uint32(args[1])))
		},
		instrument.HookLogRetL: ret,
		instrument.HookLogRetF: ret,
		instrument.HookLogRetD: ret,
		instrument.HookLogBegin: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			h.label(trace.HookFuncBegin, uint32(args[0]), 0)
			return nil, nil
		},
		instrument.HookLogEnd: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			h.label(trace.HookFuncEnd, uint32(args[0]), 0)
			return nil, nil
		},
		instrument.HookLogParmI: func(_ *exec.VM, args []uint64) ([]uint64, error) {
			h.label(trace.HookParam, uint32(args[0]), uint64(uint32(args[1])))
			return nil, nil
		},
		instrument.HookLogParmL: param,
		instrument.HookLogParmF: param,
		instrument.HookLogParmD: param,
	}
}

// PackAction serializes an action for send_inline / send_deferred. The
// layout is fixed-width little-endian: account(8) name(8) nauth(4)
// {actor(8) permission(8)}* dlen(4) data. (The real chain uses varuint
// framing; the fixed layout keeps generated contracts simple while
// exercising the same code paths.)
func PackAction(act Action) []byte {
	buf := make([]byte, 0, 24+16*len(act.Authorization)+len(act.Data))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(act.Account))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(act.Name))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(act.Authorization)))
	for _, pl := range act.Authorization {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pl.Actor))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pl.Permission))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(act.Data)))
	return append(buf, act.Data...)
}

// UnpackAction parses the PackAction layout.
func UnpackAction(p []byte) (Action, error) {
	if len(p) < 20 {
		return Action{}, failure.Newf(failure.Trap, "chain: packed action too short (%d bytes)", len(p))
	}
	act := Action{
		Account: eos.Name(binary.LittleEndian.Uint64(p[0:])),
		Name:    eos.Name(binary.LittleEndian.Uint64(p[8:])),
	}
	nauth := binary.LittleEndian.Uint32(p[16:])
	off := 20
	if nauth > 16 || len(p) < off+int(nauth)*16+4 {
		return Action{}, failure.Newf(failure.Trap, "chain: packed action truncated")
	}
	for i := uint32(0); i < nauth; i++ {
		act.Authorization = append(act.Authorization, PermissionLevel{
			Actor:      eos.Name(binary.LittleEndian.Uint64(p[off:])),
			Permission: eos.Name(binary.LittleEndian.Uint64(p[off+8:])),
		})
		off += 16
	}
	dlen := binary.LittleEndian.Uint32(p[off:])
	off += 4
	if len(p) < off+int(dlen) {
		return Action{}, failure.Newf(failure.Trap, "chain: packed action data truncated")
	}
	act.Data = append([]byte(nil), p[off:off+int(dlen)]...)
	return act, nil
}
