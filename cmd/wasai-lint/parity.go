package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// checkOracleParity enforces the static layers' soundness precondition
// across packages: every contractgen.Class* constant the scanner's
// detectors reference (the dynamic oracles) must also be referenced by
// internal/static (which computes one candidate flag per oracle class) AND
// by internal/static/absint (which proves one three-valued verdict per
// class). A class detected dynamically but unknown to absint would get no
// verdict from wasai.AnalyzeVerdicts; one unknown to internal/static would
// get no candidate flag, which wasai.AnalyzeStatic reports as "statically
// impossible".
func checkOracleParity(root string) ([]string, error) {
	scannerClasses, err := classRefs(filepath.Join(root, "internal/scanner"))
	if err != nil {
		return nil, err
	}
	staticClasses, err := classRefs(filepath.Join(root, "internal/static"))
	if err != nil {
		return nil, err
	}
	absintClasses, err := classRefs(filepath.Join(root, "internal/static/absint"))
	if err != nil {
		return nil, err
	}
	var diags []string
	for _, class := range sortedClassNames(scannerClasses) {
		if _, ok := staticClasses[class]; !ok {
			diags = append(diags, fmt.Sprintf(
				"%s: scanner oracle references contractgen.%s but internal/static has no matching candidate flag",
				scannerClasses[class], class))
		}
		if _, ok := absintClasses[class]; !ok {
			diags = append(diags, fmt.Sprintf(
				"%s: scanner oracle references contractgen.%s but internal/static/absint has no verdict implementation",
				scannerClasses[class], class))
		}
	}
	return diags, nil
}

// checkBackendParity enforces the pluggable-backend completeness
// invariant on internal/chain: every host-API name constant (API*) must be
// referenced outside its declaring file. The constants name the host
// functions a chain.Backend installs and the oracle sets reason about; a
// constant nothing else references is a host function the backend surface
// silently dropped (or a stale name the oracles can no longer match).
func checkBackendParity(root string) ([]string, error) {
	files, err := packageFiles(filepath.Join(root, "internal/chain"))
	if err != nil {
		return nil, err
	}
	decl := map[string]string{}     // API* const name -> declaring position
	declFile := map[string]string{} // API* const name -> declaring file
	usedIn := map[string]map[string]bool{}
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if strings.HasPrefix(name.Name, "API") {
						decl[name.Name] = fset.Position(name.Pos()).String()
						declFile[name.Name] = path
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !strings.HasPrefix(id.Name, "API") {
				return true
			}
			if usedIn[id.Name] == nil {
				usedIn[id.Name] = map[string]bool{}
			}
			usedIn[id.Name][path] = true
			return true
		})
	}
	var diags []string
	for _, name := range sortedClassNames(decl) {
		installed := false
		for path := range usedIn[name] {
			if path != declFile[name] {
				installed = true
			}
		}
		if !installed {
			diags = append(diags, fmt.Sprintf(
				"%s: host-API constant %s is declared but no backend or oracle set references it",
				decl[name], name))
		}
	}
	return diags, nil
}

// classRefs scans a package's non-test files for contractgen.Class*
// selector references (excluding the Classes slice itself) and returns each
// class name with the position of its first use.
func classRefs(dir string) (map[string]string, error) {
	files, err := packageFiles(dir)
	if err != nil {
		return nil, err
	}
	refs := map[string]string{}
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		aliases := contractgenAliases(f)
		if len(aliases) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Obj != nil || !aliases[pkg.Name] {
				return true
			}
			name := sel.Sel.Name
			if strings.HasPrefix(name, "Class") && name != "Class" && name != "Classes" {
				if _, seen := refs[name]; !seen {
					refs[name] = fset.Position(sel.Pos()).String()
				}
			}
			return true
		})
	}
	return refs, nil
}

// contractgenAliases returns the local names under which the file imports
// repro/internal/contractgen.
func contractgenAliases(f *ast.File) map[string]bool {
	aliases := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Path.Value != `"repro/internal/contractgen"` {
			continue
		}
		name := "contractgen"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		aliases[name] = true
	}
	return aliases
}

// sortedClassNames orders the diagnostics deterministically.
func sortedClassNames(refs map[string]string) []string {
	out := make([]string, 0, len(refs))
	for name := range refs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
