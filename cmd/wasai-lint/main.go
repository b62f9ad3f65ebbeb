// Command wasai-lint is this repository's custom lint gate, run by `make
// lint` (and so by `make verify`). It enforces five repo-specific
// invariants that go vet cannot know about:
//
//   - nondeterminism: the deterministic core packages (corePackages below:
//     internal/campaign, internal/chain, internal/fuzz, internal/symbolic,
//     internal/symexec, internal/static, internal/trace and more) promise
//     byte-identical results for identical inputs. Wall-clock reads
//     (time.Now / time.Since / time.Until) and unseeded math/rand calls
//     (anything but rand.New / rand.NewSource) break that promise, so they
//     are forbidden. Reporting-only uses (duration metrics, timeouts) are
//     allowed with an explicit `//wasai:nondet <reason>` directive on the
//     same or the preceding line.
//
//   - oracle parity: every vulnerability class the scanner's detectors
//     reference must have a matching static candidate flag in
//     internal/static AND a verdict implementation in
//     internal/static/absint, so neither static triage layer can silently
//     lag behind a newly added oracle (an un-flagged or un-proven oracle
//     would make triage skips unsound).
//
//   - backend parity: every host-API name constant (API*) declared in
//     internal/chain must be referenced outside its declaring file — the
//     constants name the functions a chain.Backend installs and the oracle
//     sets match on, so an orphaned constant means the pluggable backend
//     surface silently dropped a host function (or kept a stale name).
//
//   - local caches: cross-job caching must go through internal/memo, which
//     owns the determinism contract (canonical keys, Unknown never cached,
//     faulted attempts bypassed). Map-typed (or sync.Map) declarations that
//     advertise cache semantics — the identifier or its enclosing struct
//     has a whole cache/memo/group word — are forbidden in the pipeline
//     packages unless annotated `//wasai:localcache <reason>` as query- or
//     job-local.
//
//   - raw errors: in the analysis-pipeline packages (internal/campaign,
//     internal/fuzz, internal/symbolic, internal/chain) every constructed
//     error must carry a failure class — failure.Newf / failure.Wrap, or a
//     fmt.Errorf with %w forwarding a classified cause. Bare errors.New and
//     %w-less fmt.Errorf defeat the retry policy and the failure taxonomy;
//     deliberate exceptions carry a `//wasai:rawerr <reason>` directive.
//
// The analyzers are built on the standard library's go/parser and go/ast
// alone. The usual vehicle for custom analyzers is a
// golang.org/x/tools/go/analysis multichecker, but this repository builds
// offline with a zero-dependency module, so the same checks are implemented
// as direct AST passes — the diagnostics keep the analyzer-style
// `path:line:col: message` shape.
//
// Usage:
//
//	go run ./cmd/wasai-lint          # from anywhere inside the module
//
// Exit status 1 when any diagnostic is reported.
package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// corePackages are the determinism-audited packages, relative to the module
// root.
var corePackages = []string{
	"internal/campaign",
	"internal/chain",
	"internal/fuzz",
	"internal/schedule",
	"internal/symbolic",
	"internal/symexec",
	"internal/static",
	"internal/trace",
	"internal/memo",
	"internal/wasm/exec",
	"internal/wal",
	"internal/store",
	"internal/serve",
	"cmd/wasai-serve",
}

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wasai-lint:", err)
		os.Exit(2)
	}
	var diags []string
	for _, pkg := range corePackages {
		d, err := checkNondeterminism(filepath.Join(root, pkg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wasai-lint:", err)
			os.Exit(2)
		}
		diags = append(diags, d...)
	}
	for _, pkg := range localcachePackages {
		d, err := checkLocalCaches(filepath.Join(root, pkg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wasai-lint:", err)
			os.Exit(2)
		}
		diags = append(diags, d...)
	}
	for _, pkg := range rawerrPackages {
		d, err := checkRawErrors(filepath.Join(root, pkg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wasai-lint:", err)
			os.Exit(2)
		}
		diags = append(diags, d...)
	}
	d, err := checkOracleParity(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wasai-lint:", err)
		os.Exit(2)
	}
	diags = append(diags, d...)
	d, err = checkBackendParity(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wasai-lint:", err)
		os.Exit(2)
	}
	diags = append(diags, d...)

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
