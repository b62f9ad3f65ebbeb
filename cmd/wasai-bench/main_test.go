package main

import (
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// usageExperiments returns the experiment names the package comment lists
// after "Experiments:", up to "(run explicitly".
func usageExperiments(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatalf("parse main.go: %v", err)
	}
	_, rest, ok := strings.Cut(f.Doc.Text(), "Experiments:")
	if !ok {
		t.Fatal(`package comment has no "Experiments:" list`)
	}
	list, _, ok := strings.Cut(rest, "(run explicitly")
	if !ok {
		t.Fatal(`"Experiments:" list does not end in "(run explicitly"`)
	}
	var names []string
	for _, w := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }) {
		if w != "and" && w != "plus" {
			names = append(names, w)
		}
	}
	return names
}

// TestCheckExp: the retired experiments and a typo are rejected with the
// valid names, every name the usage comment documents is accepted, and the
// comment documents every experiment.
func TestCheckExp(t *testing.T) {
	for _, bad := range []string{"incr", "triage", "tabel4", ""} {
		err := checkExp(bad)
		if err == nil {
			t.Errorf("checkExp(%q) accepted an unknown experiment", bad)
			continue
		}
		if !strings.Contains(err.Error(), "fig3, table4") {
			t.Errorf("checkExp(%q) error does not list the valid names: %v", bad, err)
		}
	}
	named := usageExperiments(t)
	for _, name := range named {
		if err := checkExp(name); err != nil {
			t.Errorf("usage comment names %q, but checkExp rejects it: %v", name, err)
		}
	}
	for _, name := range experiments {
		if !slices.Contains(named, name) {
			t.Errorf("experiment %q is missing from the usage comment", name)
		}
	}
}
