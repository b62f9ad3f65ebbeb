// Package exec implements a stack-based WebAssembly interpreter with the
// execution profile of EOSVM: a single linear memory, funcref tables with
// call_indirect dispatch, host-function imports, deterministic traps, and
// fuel metering so runaway contracts (e.g. the obfuscator's unsatisfiable
// recursion) terminate deterministically.
package exec

import "fmt"

// TrapKind enumerates the deterministic trap causes.
type TrapKind int

// Trap kinds.
const (
	TrapUnreachable TrapKind = iota + 1
	TrapMemoryOutOfBounds
	TrapDivideByZero
	TrapIntegerOverflow
	TrapInvalidConversion
	TrapUndefinedElement
	TrapIndirectCallTypeMismatch
	TrapStackExhausted
	TrapFuelExhausted
	TrapHostError
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapUnreachable:
		return "unreachable"
	case TrapMemoryOutOfBounds:
		return "out of bounds memory access"
	case TrapDivideByZero:
		return "integer divide by zero"
	case TrapIntegerOverflow:
		return "integer overflow"
	case TrapInvalidConversion:
		return "invalid conversion to integer"
	case TrapUndefinedElement:
		return "undefined table element"
	case TrapIndirectCallTypeMismatch:
		return "indirect call type mismatch"
	case TrapStackExhausted:
		return "call stack exhausted"
	case TrapFuelExhausted:
		return "fuel exhausted"
	case TrapHostError:
		return "host error"
	default:
		return fmt.Sprintf("trap(%d)", int(k))
	}
}

// Trap is a runtime fault. Traps abort the current invocation and, at the
// chain layer, revert the enclosing transaction.
type Trap struct {
	Kind TrapKind
	// FuncIndex and PC locate the faulting instruction when known.
	FuncIndex uint32
	PC        int
	// Wrapped carries the host error for TrapHostError.
	Wrapped error
}

// Error implements error.
func (t *Trap) Error() string {
	if t.Wrapped != nil {
		return fmt.Sprintf("wasm trap: %s: %v (func %d pc %d)", t.Kind, t.Wrapped, t.FuncIndex, t.PC)
	}
	return fmt.Sprintf("wasm trap: %s (func %d pc %d)", t.Kind, t.FuncIndex, t.PC)
}

// Unwrap exposes the wrapped host error.
func (t *Trap) Unwrap() error { return t.Wrapped }

// AsTrap extracts a *Trap from err when present: err itself, or the
// first trap found depth-first down its Unwrap() error and Unwrap()
// []error chains, the order errors.As searches. It type-asserts instead
// of calling errors.As, which would make every host error allocate; no
// error type in the repository has an As method for errors.As to honour.
func AsTrap(err error) (*Trap, bool) {
	for err != nil {
		switch e := err.(type) {
		case *Trap:
			return e, true
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, inner := range e.Unwrap() {
				if t, ok := AsTrap(inner); ok {
					return t, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}

// IsTrap reports whether err is (or wraps) a trap of the given kind.
func IsTrap(err error, kind TrapKind) bool {
	t, ok := AsTrap(err)
	return ok && t.Kind == kind
}
