package campaign

import (
	"slices"

	"repro/internal/fuzz"
	"repro/internal/wasm"
)

// maxWorkerArtifacts bounds the artifacts one worker keeps; tests shrink
// it. Each holds the instrumented module, a compiled module with its
// 64 KiB memory image and lowered IR, and at most 1.5 MiB of replay
// events, so a worker's table holds about 100 MiB at most, plus the
// modules, their IR and the entries' bookkeeping, however large the
// campaign (DESIGN.md "Per-bytecode artifacts" gives the measured peak).
var maxWorkerArtifacts = 64

// artifactCache is one worker's table of per-bytecode artifacts: the jobs
// the worker runs on one module build their fuzzers from one fuzz.Artifact,
// so the module is instrumented, compiled and lowered once, and each job's
// Symback replays answer from what the worker's earlier jobs on it
// replayed. It is keyed by module pointer: the batch facade decodes
// content-identical bytes into one module, and jobs handed in as modules
// share an artifact only when they share the pointer.
type artifactCache struct {
	//wasai:localcache worker-local: owned by one worker goroutine, which
	// alone reads and writes it; at most maxWorkerArtifacts entries, and it
	// dies with the campaign. Artifacts are pure functions of the module,
	// and their replay outcomes of the traces (DESIGN.md "Per-bytecode
	// artifacts"), so sharing them never changes findings.
	byModule map[*wasm.Module]*fuzz.Artifact
	order    []*wasm.Module // least recently used first
}

// artifact returns the worker's artifact for mod, building it on first
// use and evicting the least recently used entry of a full table. The wild
// population repeats a few modules often and many rarely, and recency
// keeps the frequent ones: over 4,955 contracts at one worker it builds
// 250 artifacts for 102 modules, where evicting the oldest built 386.
func (c *artifactCache) artifact(mod *wasm.Module) (*fuzz.Artifact, error) {
	if a, ok := c.byModule[mod]; ok {
		i := slices.Index(c.order, mod)
		copy(c.order[i:], c.order[i+1:])
		c.order[len(c.order)-1] = mod
		return a, nil
	}
	a, err := fuzz.NewArtifact(mod)
	if err != nil {
		return nil, err
	}
	if c.byModule == nil {
		c.byModule = map[*wasm.Module]*fuzz.Artifact{}
	}
	if len(c.order) >= maxWorkerArtifacts {
		delete(c.byModule, c.order[0])
		c.order = append(c.order[:0], c.order[1:]...)
	}
	c.byModule[mod] = a
	c.order = append(c.order, mod)
	return a, nil
}
