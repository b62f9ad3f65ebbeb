package fuzz

import (
	"fmt"
	"sync/atomic"

	"repro/internal/failure"
	"repro/internal/instrument"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// Artifact is what a fuzzing job derives from its target module alone: the
// instrumented module with its site table (§3.3.1), the compiled module
// whose IR the first fast VM lowers once, and the Symback replay outcomes
// that the jobs fuzzing it have recorded. Everything but the outcomes is
// read-only once built, so any number of jobs, under any seed and
// configuration, may fuzz one artifact; the outcomes sit behind a mutex
// (see replayCache). A campaign worker keeps a table of them, so the jobs
// of one bytecode instrument, compile and lower it once, and each job's
// replays answer from what earlier jobs replayed.
type Artifact struct {
	mod      *wasm.Module // original (pre-instrumentation) module
	instr    *instrument.Result
	compiled *exec.CompiledModule // instr.Module, compiled once per artifact
	replays  replayCache
}

// NewArtifact instruments and compiles mod. The errors are those New
// returns for a module it cannot set up.
func NewArtifact(mod *wasm.Module) (*Artifact, error) {
	res, err := instrument.Instrument(mod, instrument.ModeSparse)
	if err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: instrument: %w", err))
	}
	// The campaign chain and the scenario chain of every job on the
	// artifact link their instances from this one compiled module.
	compiled, err := exec.Compile(res.Module)
	if err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: compile target: %w", err))
	}
	work.artifacts.Add(1)
	return &Artifact{
		mod:      mod,
		instr:    res,
		compiled: compiled,
		replays:  replayCache{limit: maxReplayCacheEvents},
	}, nil
}

// work totals, over the process, the artifacts built and the Symback
// replays run. Nothing reads them back into an analysis.
var work struct{ artifacts, replays atomic.Int64 }

// Work returns how many artifacts NewArtifact has built and how many
// Symback replays fuzzers have run in this process. Tests take
// differences of it around one campaign.
func Work() (artifacts, replays int64) {
	return work.artifacts.Load(), work.replays.Load()
}
