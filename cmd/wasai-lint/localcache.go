package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

// localcache.go enforces the memoization-layer invariant: cross-job caching
// in the analysis pipeline must go through internal/memo, which owns the
// determinism contract (canonical keys, Unknown never cached, fault-injected
// attempts bypassed). An ad-hoc `cache map[...]...` hidden in a pipeline
// package escapes that contract — its keys are unaudited, its lifetime is
// unbounded, and nothing keeps faulted state out of it. So any map-typed
// (or sync.Map) declaration that looks like a cache — the identifier or its
// enclosing struct has a cache/memo word — is flagged unless it carries a
// `//wasai:localcache <reason>` directive asserting it is query- or
// job-local (or is internal/memo's own sanctioned storage).

// localcacheDirective marks an audited, intentionally local cache.
const localcacheDirective = "//wasai:localcache"

// localcachePackages are the pipeline packages under the memoization
// contract, relative to the module root. internal/memo is included: its own
// raw storage self-annotates, so a second unsanctioned cache inside the
// cache package would still be caught. internal/chain is included because
// a chain keeps per-apply state, its apply context and iterator cache,
// alive across applies.
var localcachePackages = []string{
	"internal/campaign",
	"internal/chain",
	"internal/fuzz",
	"internal/schedule",
	"internal/symbolic",
	"internal/symexec",
	"internal/static",
	"internal/memo",
	"internal/wasm/exec",
	"internal/wal",
	"internal/store",
	"internal/serve",
	"internal/trace",
	"cmd/wasai-serve",
}

// localcacheWord matches one word that advertises cache semantics, with
// its inflections. `group` is included because state shared across a
// group of queries (a solver instance reused for several flips, say) is
// learned-clause reuse, which is under the same audit regime as any cache.
var localcacheWord = regexp.MustCompile(`(?i)^(un)?(cach(e|es|ed|ing)|memo(s|i[sz](e|es|ed|ing|ation))?|group(s|ed|ing)?)$`)

// isCacheName reports whether an identifier advertises cache semantics: a
// whole word of it matches localcacheWord, so memoTable, solverMemo and
// queryCache do and Memory does not.
func isCacheName(name string) bool {
	for _, w := range identWords(name) {
		if localcacheWord.MatchString(w) {
			return true
		}
	}
	return false
}

// identWords splits a camelCase or snake_case identifier into its words:
// a word ends before a non-letter, and before an upper-case letter that
// follows a lower-case one or starts a capitalized word ("LRUCache" is
// LRU and Cache).
func identWords(name string) []string {
	rs := []rune(name)
	var words []string
	start := 0
	for i := 0; i <= len(rs); i++ {
		if i == len(rs) || !unicode.IsLetter(rs[i]) {
			if i > start {
				words = append(words, string(rs[start:i]))
			}
			start = i + 1
			continue
		}
		if i > start && unicode.IsUpper(rs[i]) &&
			(unicode.IsLower(rs[i-1]) || i+1 < len(rs) && unicode.IsLower(rs[i+1])) {
			words = append(words, string(rs[start:i]))
			start = i
		}
	}
	return words
}

// checkLocalCaches lints one package directory (non-test files only: test
// doubles build throwaway caches legitimately).
func checkLocalCaches(dir string) ([]string, error) {
	files, err := packageFiles(dir)
	if err != nil {
		return nil, err
	}
	var diags []string
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		allowed := localcacheLines(fset, f)
		flag := func(pos token.Pos, name string) {
			p := fset.Position(pos)
			if allowed[p.Line] || allowed[p.Line-1] {
				return
			}
			diags = append(diags, fmt.Sprintf(
				"%s: direct map cache %q in pipeline package; route it through internal/memo or annotate with %q if query/job-local",
				p, name, localcacheDirective+" <reason>"))
		}
		flagState := func(pos token.Pos, name string) {
			p := fset.Position(pos)
			if allowed[p.Line] || allowed[p.Line-1] {
				return
			}
			diags = append(diags, fmt.Sprintf(
				"%s: retained solver state %q in pipeline package; learned clauses and branching heuristics persist across queries — annotate with %q stating the reuse scope and why digests stay invariant",
				p, name, localcacheDirective+" <reason>"))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				structMatches := isCacheName(n.Name.Name)
				for _, fld := range st.Fields.List {
					if isSolverStateType(fld.Type) {
						// A struct field holding a SAT instance or blaster is
						// retained solver state: learned clauses, VSIDS
						// activity, and phase saving outlive the query that
						// produced them, which is cache semantics whatever
						// the field is called. Same audit regime as a map.
						for _, name := range fld.Names {
							flagState(name.Pos(), n.Name.Name+"."+name.Name)
						}
						continue
					}
					if !isMapLikeType(fld.Type) {
						continue
					}
					for _, name := range fld.Names {
						if structMatches || isCacheName(name.Name) {
							flag(name.Pos(), n.Name.Name+"."+name.Name)
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if !isCacheName(name.Name) {
						continue
					}
					if isMapLikeType(n.Type) || (i < len(n.Values) && isMapValue(n.Values[i])) {
						flag(name.Pos(), name.Name)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || !isCacheName(id.Name) {
						continue
					}
					if i < len(n.Rhs) && isMapValue(n.Rhs[i]) {
						flag(id.Pos(), id.Name)
					}
				}
			}
			return true
		})
	}
	sort.Strings(diags)
	return diags, nil
}

// isSolverStateType reports whether the type expression is a SAT instance or
// bit-blaster (optionally behind a pointer) — the shapes retained solver
// state is built on. Name-based like the rest of this file's checks: the
// linter parses without type information, and the two names are this
// repository's only solver-state types.
func isSolverStateType(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.StarExpr:
		return isSolverStateType(e.X)
	case *ast.Ident:
		return e.Name == "SAT" || e.Name == "blaster"
	}
	return false
}

// isMapLikeType reports whether the type expression is a map or sync.Map —
// the storage shapes an ad-hoc cache is built on.
func isMapLikeType(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.MapType:
		return true
	case *ast.StarExpr:
		return isMapLikeType(e.X)
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		return ok && pkg.Name == "sync" && e.Sel.Name == "Map"
	}
	return false
}

// isMapValue reports whether the expression constructs a map: make(map...)
// or a map composite literal.
func isMapValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		fn, ok := e.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" || len(e.Args) == 0 {
			return false
		}
		_, isMap := e.Args[0].(*ast.MapType)
		return isMap
	case *ast.CompositeLit:
		_, isMap := e.Type.(*ast.MapType)
		return isMap
	case *ast.UnaryExpr:
		return e.Op == token.AND && isMapValue(e.X)
	}
	return false
}

// localcacheLines collects line numbers covered by a //wasai:localcache
// marker. A directive anywhere in a comment group covers the whole group, so
// a multi-line justification ending right above the declaration counts.
func localcacheLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		marked := false
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, localcacheDirective) {
				marked = true
				break
			}
		}
		if !marked {
			continue
		}
		for l := fset.Position(cg.Pos()).Line; l <= fset.Position(cg.End()).Line; l++ {
			lines[l] = true
		}
	}
	return lines
}
