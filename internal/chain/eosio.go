package chain

import (
	"encoding/binary"
	"fmt"

	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/wasm/exec"
)

// eosioBackend is the default chain personality: the EOSIO host-API
// surface (require_auth / send_inline / db_*_i64 and friends) with the
// eosio.token system contract. It is stateless — all chain state lives on
// the Blockchain — so one value can serve any number of chains.
type eosioBackend struct{}

// EOSIO returns the default EOSIO backend.
func EOSIO() Backend { return eosioBackend{} }

// Name implements Backend.
func (eosioBackend) Name() string { return "eosio" }

// Bootstrap implements Backend: deploy the eosio.token system contract.
func (eosioBackend) Bootstrap(bc *Blockchain) {
	bc.accounts[eos.TokenContract] = &Account{
		Name:   eos.TokenContract,
		Native: &TokenContract{Issuer: eos.TokenContract, Sym: eos.EOSSymbol},
		ABI:    abi.TransferABI(),
	}
}

// Classification implements Backend with the package-level EOSIO sets.
func (eosioBackend) Classification() APIClassification {
	return APIClassification{
		Permission: PermissionAPIs,
		Effect:     EffectAPIs,
		Blockinfo:  BlockinfoAPIs,
	}
}

// HostEnv implements Backend: the EOSIO "env" import module. Every
// closure resolves the apply context through ctxOf(vm), so the module
// depends only on the chain, never on one apply.
func (b eosioBackend) HostEnv(bc *Blockchain) exec.HostModule {
	env := exec.HostModule{
		APIRequireAuth: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return nil, ctxOf(vm).RequireAuth(eos.Name(args[0]))
		},
		APIRequireAuth2: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return nil, ctxOf(vm).RequireAuth(eos.Name(args[0]))
		},
		APIHasAuth: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			if ctxOf(vm).HasAuth(eos.Name(args[0])) {
				return vm.Result(1), nil
			}
			return vm.Result(0), nil
		},
		APIRequireRecipient: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			ctxOf(vm).RequireRecipient(eos.Name(args[0]))
			return nil, nil
		},
		APIIsAccount: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			if ctxOf(vm).chain.Account(eos.Name(args[0])) != nil {
				return vm.Result(1), nil
			}
			return vm.Result(0), nil
		},
		APICurrentReceiver: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return vm.Result(uint64(ctxOf(vm).Receiver)), nil
		},
		APIEosioAssert: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			if uint32(args[0]) != 0 {
				return nil, nil
			}
			return nil, &AssertError{Msg: readCStr(vm, uint32(args[1]))}
		},
		APIReadActionData: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			ctx := ctxOf(vm)
			n := int(uint32(args[1]))
			if n > len(ctx.Data) {
				n = len(ctx.Data)
			}
			if err := vm.Instance().WriteMemory(uint32(args[0]), ctx.Data[:n]); err != nil {
				return nil, err
			}
			return vm.Result(uint64(uint32(n))), nil
		},
		APIActionDataSize: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return vm.Result(uint64(uint32(len(ctxOf(vm).Data)))), nil
		},
		APISendInline: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			// A view suffices: UnpackAction copies what it keeps.
			p, err := vm.Instance().ViewMemory(uint32(args[0]), uint32(args[1]))
			if err != nil {
				return nil, err
			}
			act, err := UnpackAction(p)
			if err != nil {
				return nil, fmt.Errorf("send_inline: %w", err)
			}
			ctxOf(vm).SendInline(act)
			return nil, nil
		},
		APISendDeferred: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			// Simplified signature: (payer i64, ptr i32, len i32).
			p, err := vm.Instance().ViewMemory(uint32(args[1]), uint32(args[2]))
			if err != nil {
				return nil, err
			}
			act, err := UnpackAction(p)
			if err != nil {
				return nil, fmt.Errorf("send_deferred: %w", err)
			}
			ctxOf(vm).SendDeferred(Transaction{Actions: []Action{act}})
			return nil, nil
		},
		APITaposBlockNum: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return vm.Result(uint64(ctxOf(vm).chain.TaposBlockNum())), nil
		},
		APITaposBlockPrefix: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return vm.Result(uint64(ctxOf(vm).chain.TaposBlockPrefix())), nil
		},
		APICurrentTime: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return vm.Result(ctxOf(vm).chain.TimeUs()), nil
		},
		APIPrints: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			ctxOf(vm).Print(readCStr(vm, uint32(args[0])))
			return nil, nil
		},
		APIPrintsL: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			p, err := vm.Instance().ViewMemory(uint32(args[0]), uint32(args[1]))
			if err != nil {
				return nil, err
			}
			ctxOf(vm).Print(string(p))
			return nil, nil
		},
		APIPrintI: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			ctxOf(vm).Print(fmt.Sprintf("%d", int64(args[0])))
			return nil, nil
		},
		APIPrintN: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			ctxOf(vm).Print(eos.Name(args[0]).String())
			return nil, nil
		},
		APIMemcpy: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			dst, src, n := uint32(args[0]), uint32(args[1]), uint32(args[2])
			// WriteMemory's copy is a memmove, so an overlapping view of
			// the source is safe.
			p, err := vm.Instance().ViewMemory(src, n)
			if err != nil {
				return nil, err
			}
			if err := vm.Instance().WriteMemory(dst, p); err != nil {
				return nil, err
			}
			return vm.Result(uint64(dst)), nil
		},
		APIMemset: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			dst, val, n := uint32(args[0]), byte(args[1]), uint32(args[2])
			p := make([]byte, n)
			for i := range p {
				p[i] = val
			}
			if err := vm.Instance().WriteMemory(dst, p); err != nil {
				return nil, err
			}
			return vm.Result(uint64(dst)), nil
		},
		APIAbort: func(vm *exec.VM, args []uint64) ([]uint64, error) {
			return nil, &AssertError{Msg: "abort() called"}
		},
	}
	b.addDBAPIs(env)
	return env
}

func (eosioBackend) addDBAPIs(env exec.HostModule) {
	env[APIDBStore] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		scope, tab := eos.Name(args[0]), eos.Name(args[1])
		id := args[3]
		// A view suffices: the database copies the row it stores.
		p, err := vm.Instance().ViewMemory(uint32(args[4]), uint32(args[5]))
		if err != nil {
			return nil, err
		}
		ctx.RecordDBOpKey(DBWrite, tab, id)
		it := ctx.iters.Store(scope, tab, ctx.Receiver, id, p)
		return vm.Result(uint64(uint32(it))), nil
	}
	env[APIDBFind] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		code, scope, tab, id := eos.Name(args[0]), eos.Name(args[1]), eos.Name(args[2]), args[3]
		ctx.RecordDBOpKey(DBRead, tab, id)
		return vm.Result(uint64(uint32(ctx.iters.Find(code, scope, tab, id)))), nil
	}
	env[APIDBGet] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		row, err := ctx.iters.Get(int32(uint32(args[0])))
		if err != nil {
			return nil, err
		}
		n := int(uint32(args[2]))
		if n == 0 {
			return vm.Result(uint64(uint32(len(row)))), nil
		}
		if n > len(row) {
			n = len(row)
		}
		if err := vm.Instance().WriteMemory(uint32(args[1]), row[:n]); err != nil {
			return nil, err
		}
		return vm.Result(uint64(uint32(n))), nil
	}
	env[APIDBUpdate] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		p, err := vm.Instance().ViewMemory(uint32(args[2]), uint32(args[3]))
		if err != nil {
			return nil, err
		}
		handle := int32(uint32(args[0]))
		if r, ok := ctx.iters.ref(handle); ok {
			ctx.RecordDBOpKey(DBWrite, r.key.Table, r.id)
		} else {
			ctx.RecordDBOp(DBWrite, eos.Name(0))
		}
		return nil, ctx.iters.Update(handle, p)
	}
	env[APIDBRemove] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		handle := int32(uint32(args[0]))
		if r, ok := ctx.iters.ref(handle); ok {
			ctx.RecordDBOpKey(DBWrite, r.key.Table, r.id)
		} else {
			ctx.RecordDBOp(DBWrite, eos.Name(0))
		}
		return nil, ctx.iters.Remove(handle)
	}
	env[APIDBNext] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		it, pk := ctx.iters.Next(int32(uint32(args[0])))
		if ptr := uint32(args[1]); ptr != 0 && it >= 0 {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], pk)
			if err := vm.Instance().WriteMemory(ptr, buf[:]); err != nil {
				return nil, err
			}
		}
		return vm.Result(uint64(uint32(it))), nil
	}
	env[APIDBPrevious] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		it, pk := ctx.iters.Previous(int32(uint32(args[0])))
		if ptr := uint32(args[1]); ptr != 0 && it >= 0 {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], pk)
			if err := vm.Instance().WriteMemory(ptr, buf[:]); err != nil {
				return nil, err
			}
		}
		return vm.Result(uint64(uint32(it))), nil
	}
	env[APIDBLowerbound] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		code, scope, tab, id := eos.Name(args[0]), eos.Name(args[1]), eos.Name(args[2]), args[3]
		ctx.RecordDBOp(DBRead, tab)
		return vm.Result(uint64(uint32(ctx.iters.LowerBound(code, scope, tab, id)))), nil
	}
	env[APIDBEnd] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
		ctx := ctxOf(vm)
		code, scope, tab := eos.Name(args[0]), eos.Name(args[1]), eos.Name(args[2])
		ctx.RecordDBOp(DBRead, tab)
		return vm.Result(uint64(uint32(ctx.iters.End(code, scope, tab)))), nil
	}
}
