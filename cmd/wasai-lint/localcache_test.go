package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestIsCacheName: a cache, memo or group word matches only whole, with
// its inflections; Memory is not memo.
func TestIsCacheName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"cache", true},
		{"queryCache", true},
		{"metaCache", true},
		{"LRUCache", true},
		{"cache_map", true},
		{"caches", true},
		{"cachedRows", true},
		{"uncached", true},
		{"memo", true},
		{"memoTable", true},
		{"solverMemo", true},
		{"memoized", true},
		{"memoization", true},
		{"SolverMemo", true},
		{"groups", true},
		{"queryGroup", true},
		{"Memory", false},
		{"NaiveMemory", false},
		{"memory", false},
		{"ReadMemory", false},
		{"memorize", false},
		{"cachet", false},
		{"groupie", false},
		{"interned", false},
		{"", false},
	} {
		if got := isCacheName(tc.name); got != tc.want {
			t.Errorf("isCacheName(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIdentWords pins how identifiers split into words.
func TestIdentWords(t *testing.T) {
	for name, want := range map[string][]string{
		"metaCache":   {"meta", "Cache"},
		"LRUCache":    {"LRU", "Cache"},
		"cache_map":   {"cache", "map"},
		"NaiveMemory": {"Naive", "Memory"},
		"HTTP2Cache":  {"HTTP", "Cache"},
		"x":           {"x"},
	} {
		if got := identWords(name); !slices.Equal(got, want) {
			t.Errorf("identWords(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestCheckLocalCachesFlagsWholeWords runs the rule over one file: a
// cache-named map field is flagged unless annotated, and a map field of a
// struct named Memory is not.
func TestCheckLocalCachesFlagsWholeWords(t *testing.T) {
	dir := t.TempDir()
	src := `package p

type Memory struct {
	bytes map[uint32]int
}

type replayer struct {
	metaCache map[uint32]int
	//wasai:localcache job-local: test fixture
	memoTable map[uint32]int
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := checkLocalCaches(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0], `"replayer.metaCache"`) {
		t.Errorf("diagnostics %q, want one for replayer.metaCache", diags)
	}
}
