package chain

import "repro/internal/wasm/exec"

// APIClassification groups a backend's host intrinsics into the three sets
// the analysis layers reason about: authorization checks (the MissAuth
// oracle's guards), state-changing effects (what those guards must
// dominate), and blockchain-state reads (the BlockinfoDep oracle's
// sources). internal/scanner and internal/static consume these sets by
// name, so a backend's classification fully determines how its intrinsics
// are triaged — no oracle code mentions a concrete personality.
type APIClassification struct {
	Permission map[string]bool
	Effect     map[string]bool
	Blockinfo  map[string]bool
}

// Backend is one chain personality: the host-API surface a deployed
// contract links against, plus the system contracts the personality ships
// with. The Blockchain owns everything personality-independent —
// transaction atomicity, notification and inline/deferred dispatch, the
// key-value database, trace collection, fault injection — and delegates
// the intrinsic surface to its backend, so a second personality plugs
// into the fuzz/symbolic/scanner pipeline without touching callers.
//
// Determinism contract: HostEnv must be a pure function of (backend,
// chain) — the returned closures may read per-apply state only through
// the VM's context (ctxOf), never capture it at build time — and
// Bootstrap must deploy the same accounts in the same order on every
// chain. EOSIO() is the default personality; campaign digests are
// byte-identical to the pre-interface code by construction (the method
// bodies moved, their behaviour did not).
type Backend interface {
	// Name labels the personality (diagnostics and lint audits).
	Name() string
	// HostEnv builds the "env" import module contracts link against.
	// Called once per chain; closures resolve the apply context from the
	// VM, so one env value serves every apply on the chain.
	HostEnv(bc *Blockchain) exec.HostModule
	// Bootstrap deploys the personality's system contracts on a fresh
	// chain (EOSIO: the eosio.token native contract).
	Bootstrap(bc *Blockchain)
	// Classification exposes the personality's API sets for the static
	// and dynamic oracle layers.
	Classification() APIClassification
}
