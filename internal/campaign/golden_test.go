package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// golden_test.go pins the reference execution path as golden data. The
// digests below were captured with the tree-walking interpreter and the
// fresh solver pool (the configuration the chain ran by default before the
// decoded-IR engine became its only engine and the incremental solver
// pre-pass was deleted). The engine tests of fastvm_test.go and the solver
// tests of incremental_test.go must reproduce them byte for byte, whatever
// layers they stack on top, so a drift in the engine, the solver or any
// digest-neutral layer fails there. They are kept as SHA-256 hex of the
// FindingsDigest and StateDigest text.
const (
	// testJobs(16, 30, 13) with BaseSeed 7, fault-free.
	goldenFindings16 = "85db27e7f394168a84b809344285660c9a5c2d13bf3edf94ef9546990c6d6602"
	goldenState16    = "b506b66ad45e1723494dafe8f283c031e2acffaceb4cdf80c27406b176f6e441"
	// The same population under faultinject.Plan{Seed: 99, Rate: 0.2}
	// with three attempts: one job retries degraded.
	goldenChaosFindings16 = "dd1933d25db549b3e7d5ce114402f21d5b86d6163eea851c719b20e43c76c26f"
	goldenChaosState16    = "9f84a40e5a38c597e00ba509bb9d09e5116409f7d5e2817a4414e0c11fc97873"
	// testJobs(12, 30, 21) with BaseSeed 5, uninterrupted.
	goldenFindings12 = "596bba01d2bb35c19434fa755c20e943dca77b936e7499587c31e33d8494d021"
	goldenState12    = "c6591284673a33ad217bad04203ddb9c1e54f531d538fc1a5cb95564aa6482e4"
	// testJobs(18, 30, 42) with BaseSeed 7, the memo differential's
	// population.
	goldenFindings18 = "3b8ceb0dd98420e700713186409f517f8bc19abb389476edcdc77666c4e96625"
	goldenState18    = "a906d595e9d166b907b4ae08b53ae33479bebb10231a972b8733e22c9a9f9f92"
	// testJobs(10, 40, 31) with BaseSeed 3, Adaptive and SaturationWindow
	// 8: every job saturates and the fuel ledger regrants 272 of 272
	// iterations (captured when Run drove adaptive campaigns through a
	// separate two-phase driver).
	goldenAdaptiveFindings10 = "36373abed90afa2ec1d0c71347690566fc02acd33ad27455650bf75c5fdb9a21"
	goldenAdaptiveState10    = "f3304189fb403e664b24ae12e9e5859216c313ef51ae2dbc653121831ea3d8c2"
)

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runJobs returns a row runner for one campaign over a fresh population.
func runJobs(mk func() []Job, cfg Config) func(*testing.T) *Report {
	return func(t *testing.T) *Report {
		rep, err := Run(context.Background(), mk(), cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
}

// streamJobs returns a row runner that drives one campaign through the
// streaming Engine: Start, Submit in job order, Close.
func streamJobs(mk func() []Job, cfg Config) func(*testing.T) *Report {
	return func(t *testing.T) *Report {
		e, err := Start(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		jobs := mk()
		go func() {
			defer e.Close()
			for i := range jobs {
				jobs[i].ID = i
				if err := e.Submit(jobs[i]); err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
			}
		}()
		results := make([]JobResult, len(jobs))
		for jr := range e.Results() {
			results[jr.Job.ID] = jr
		}
		return e.Report(results, 0)
	}
}

// killResume returns a row runner that cancels a journaled campaign after
// four completed jobs and resumes it from the journal.
func killResume(mk func() []Job, cfg Config) func(*testing.T) *Report {
	return func(t *testing.T) *Report {
		cfg.Journal = filepath.Join(t.TempDir(), "campaign.jsonl")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e, err := Start(ctx, cfg)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		go func() {
			defer e.Close()
			jobs := mk()
			for i := range jobs {
				jobs[i].ID = i
				if err := e.Submit(jobs[i]); err != nil {
					return // engine cancelled mid-submission; expected
				}
			}
		}()
		completed := 0
		for jr := range e.Results() {
			if jr.Err == nil {
				completed++
			}
			if completed == 4 {
				cancel()
			}
		}
		if completed < 4 {
			t.Fatalf("interrupted run completed only %d jobs before draining", completed)
		}
		cfg.Resume = true
		rep, err := Run(context.Background(), mk(), cfg)
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if rep.Replayed == 0 {
			t.Fatal("resumed run replayed nothing from the journal")
		}
		return rep
	}
}

// requireGolden runs one campaign and requires the reference digests.
func requireGolden(t *testing.T, run func(*testing.T) *Report, findings, state string) *Report {
	t.Helper()
	rep := run(t)
	if rep.Failed != 0 {
		t.Fatalf("%d terminal failures", rep.Failed)
	}
	if got := sha256Hex(rep.FindingsDigest()); got != findings {
		t.Errorf("FindingsDigest sha256 %s, want %s; digest:\n%s", got, findings, rep.FindingsDigest())
	}
	if got := sha256Hex(rep.StateDigest()); got != state {
		t.Errorf("StateDigest sha256 %s, want %s; digest:\n%s", got, state, rep.StateDigest())
	}
	return rep
}
