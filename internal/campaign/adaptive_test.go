package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/wal"
)

// keepJournalPrefix rewrites a journal keeping only its first keep records
// (header meta preserved) — the durable state of a clean mid-campaign kill.
func keepJournalPrefix(t *testing.T, path string, keep int) {
	t.Helper()
	log, replay, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if keep > len(replay.Records) {
		keep = len(replay.Records)
	}
	out, err := wal.Create(path, wal.Options{Meta: replay.Meta, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, rec := range replay.Records[:keep] {
		if err := out.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptiveDigestWorkerInvariant: the adaptive campaign's digests are
// identical at every worker count, both alone and composed with the shared
// memo — every scheduling
// decision is a pure function of (seed, observed coverage), so worker
// interleaving and cache hits must be invisible.
func TestAdaptiveDigestWorkerInvariant(t *testing.T) {
	const nJobs = 10
	mk := func() []Job { return testJobs(t, nJobs, 40, 31) }
	layers := []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{Adaptive: true, BaseSeed: 3}},
		{"full-stack", Config{
			Adaptive: true,
			BaseSeed: 3,
			Memo:     memo.ModeShared,
		}},
	}
	for _, layer := range layers {
		t.Run(layer.name, func(t *testing.T) {
			var refState, refFindings string
			for i, workers := range []int{1, 4, 8} {
				cfg := layer.cfg
				cfg.Workers = workers
				rep, err := Run(context.Background(), mk(), cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep.Sched.Zero() {
					t.Fatalf("workers=%d: no scheduler activity recorded", workers)
				}
				if i == 0 {
					refState, refFindings = rep.StateDigest(), rep.FindingsDigest()
					continue
				}
				if got := rep.StateDigest(); got != refState {
					t.Errorf("workers=%d: StateDigest diverged:\n got: %s\nwant: %s", workers, got, refState)
				}
				if got := rep.FindingsDigest(); got != refFindings {
					t.Errorf("workers=%d: FindingsDigest diverged:\n got: %s\nwant: %s", workers, got, refFindings)
				}
			}
		})
	}
}

// TestAdaptiveStaticDigestUnchanged: running the same jobs with Adaptive
// off through the adaptive-capable engine yields a digest with no sched
// groups at all — the off path is byte-identical to the historical one and
// the scheduling layer's presence is invisible.
func TestAdaptiveStaticDigestUnchanged(t *testing.T) {
	jobs := testJobs(t, 6, 30, 41)
	rep, err := Run(context.Background(), jobs, Config{Workers: 4, BaseSeed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Sched.Zero() {
		t.Errorf("static campaign reported scheduler counters: %+v", rep.Sched)
	}
	for _, jr := range rep.Results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", jr.Job.ID, jr.Err)
		}
		if !jr.Result.Sched.Zero() || jr.Result.Saturated {
			t.Errorf("job %d carries adaptive state: sched=%+v saturated=%v",
				jr.Job.ID, jr.Result.Sched, jr.Result.Saturated)
		}
	}
}

// TestAdaptiveKillResumeDigestIdentity: an adaptive campaign killed at the
// journal level and resumed must converge on the uninterrupted digests —
// the fuel ledger recomputes identical grants from the journaled phase-1
// summaries plus the live re-runs. The 8-iteration window makes jobs
// saturate, so the ledger has fuel to move.
func TestAdaptiveKillResumeDigestIdentity(t *testing.T) {
	const nJobs = 10
	mk := func() []Job { return testJobs(t, nJobs, 40, 51) }
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers, BaseSeed: 7, Adaptive: true, SaturationWindow: 8}
			ref, err := Run(context.Background(), mk(), cfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if ref.Sched.FuelReallocated == 0 {
				t.Fatalf("the fuel ledger moved no fuel: %+v", ref.Sched)
			}

			// The interrupted run: journal everything, then cut the journal
			// back to a prefix — the durable state a SIGKILL after N synced
			// records leaves behind.
			journal := filepath.Join(t.TempDir(), "adaptive.jsonl")
			jcfg := cfg
			jcfg.Journal = journal
			jcfg.JournalSync = 1
			if _, err := Run(context.Background(), mk(), jcfg); err != nil {
				t.Fatalf("journaled run: %v", err)
			}
			keepJournalPrefix(t, journal, nJobs/2)

			rcfg := jcfg
			rcfg.Resume = true
			rep, err := Run(context.Background(), mk(), rcfg)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if rep.Replayed == 0 || rep.Replayed >= nJobs {
				t.Fatalf("resumed run replayed %d of %d jobs; the cut did not interrupt anything", rep.Replayed, nJobs)
			}
			if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
				t.Errorf("FindingsDigest diverged after kill+resume:\n got: %s\nwant: %s", got, want)
			}
			if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
				t.Errorf("StateDigest diverged after kill+resume:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestAdaptiveLedgerGolden pins an adaptive campaign whose fuel ledger
// moves fuel: with an 8-iteration saturation window every job of the
// population saturates and the ledger regrants the returned iterations.
// The digests must be the same at every worker count, alone and composed
// with the shared memo, through the streaming Engine, and
// across a cancel after four completed jobs and a resume.
func TestAdaptiveLedgerGolden(t *testing.T) {
	mk := func() []Job { return testJobs(t, 10, 40, 31) }
	type row struct {
		name string
		run  func(*testing.T) *Report
	}
	var rows []row
	for _, workers := range []int{1, 4, 8} {
		bare := Config{Workers: workers, Adaptive: true, SaturationWindow: 8, BaseSeed: 3}
		full := bare
		full.Memo = memo.ModeShared
		rows = append(rows,
			row{fmt.Sprintf("bare/workers=%d", workers), runJobs(mk, bare)},
			row{fmt.Sprintf("full-stack/workers=%d", workers), runJobs(mk, full)},
			row{fmt.Sprintf("stream/workers=%d", workers), streamJobs(mk, bare)})
		if workers < 8 {
			rows = append(rows, row{fmt.Sprintf("kill-resume/workers=%d", workers), killResume(mk, bare)})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rep := requireGolden(t, r.run, goldenAdaptiveFindings10, goldenAdaptiveState10)
			if rep.Sched.FuelReallocated == 0 {
				t.Fatalf("the fuel ledger moved no fuel: %+v", rep.Sched)
			}
		})
	}
}

// TestAdaptiveCancelBeforeBarrier: a campaign cancelled before its fuel
// ledger runs may have settled only part of its jobs, so a parked job must
// neither finish nor reach the journal: a resume recomputes the ledger
// over every job.
func TestAdaptiveCancelBeforeBarrier(t *testing.T) {
	c := contractgen.Trivial()
	journal := filepath.Join(t.TempDir(), "adaptive.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := Start(ctx, Config{Workers: 1, Adaptive: true, Journal: journal, JournalSync: 1})
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Name: "trivial", Module: c.Module, ABI: c.ABI, Config: fuzz.Config{Iterations: 5}}
	if err := e.Submit(job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for parked := 0; parked == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job did not park within 30s")
		}
		e.mu.Lock()
		parked = len(e.parked)
		e.mu.Unlock()
	}
	cancel()
	e.Close()
	for jr := range e.Results() {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("parked job finished after the cancel: err=%v", jr.Err)
		}
	}
	log, replay, err := wal.Open(journal, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if len(replay.Records) != 0 {
		t.Errorf("journal holds %d records, want none", len(replay.Records))
	}
}
