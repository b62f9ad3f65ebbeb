package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestKillResumeDigestIdentity is the tentpole resilience guarantee: a
// campaign killed mid-flight and resumed from its journal produces digests
// byte-identical to an uninterrupted run's, at every worker count.
func TestKillResumeDigestIdentity(t *testing.T) {
	const nJobs = 12
	mk := func() []Job { return testJobs(t, nJobs, 30, 21) }

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers, BaseSeed: 5}
			ref, err := Run(context.Background(), mk(), cfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Interrupted run: cancel the engine context after a few results
			// have streamed out, simulating a mid-campaign kill. Post-cancel
			// submissions fail and in-flight jobs die with context errors;
			// neither reaches the journal.
			journal := filepath.Join(t.TempDir(), "campaign.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			icfg := cfg
			icfg.Journal = journal
			e, err := Start(ctx, icfg)
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			go func() {
				defer e.Close() // always: workers drain until the queue closes
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

			// Resumed run over the same population.
			rcfg := cfg
			rcfg.Journal = journal
			rcfg.Resume = true
			rep, err := Run(context.Background(), mk(), rcfg)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if rep.Replayed == 0 {
				t.Fatal("resumed run replayed nothing from the journal")
			}
			if rep.Replayed >= nJobs {
				t.Fatalf("resumed run replayed all %d jobs; the kill did not interrupt anything", rep.Replayed)
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

// TestJournalCorruptionTolerance tears the journal's tail and injects a
// garbage line — the shape a SIGKILL mid-write leaves behind. Resume must
// drop the damaged records, re-run those jobs, and still converge on the
// uninterrupted digests.
func TestJournalCorruptionTolerance(t *testing.T) {
	const nJobs = 8
	mk := func() []Job { return testJobs(t, nJobs, 25, 17) }
	cfg := Config{Workers: 2, BaseSeed: 9, Journal: filepath.Join(t.TempDir(), "j.jsonl")}

	ref, err := Run(context.Background(), mk(), cfg)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}

	data, err := os.ReadFile(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data, []byte("\n")) != nJobs+1 { // header + one line per job
		t.Fatalf("journal has %d lines, want %d", bytes.Count(data, []byte("\n")), nJobs+1)
	}
	// Tear the final record mid-line, then append garbage and a lying
	// record that carries no valid CRC frame — the WAL must reject both.
	torn := data[:len(data)-10]
	torn = append(torn, []byte("\n{not json at all\n")...)
	torn = append(torn, []byte(`00000001 {"id":0,"name":"evil"}`+"\n")...)
	if err := os.WriteFile(cfg.Journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Resume = true
	rep, err := Run(context.Background(), mk(), rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed != nJobs-1 {
		t.Errorf("replayed %d jobs, want %d (the torn record must re-run, the lying one must be dropped)",
			rep.Replayed, nJobs-1)
	}
	if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
		t.Errorf("StateDigest diverged after corruption+resume:\n got: %s\nwant: %s", got, want)
	}
}

// TestJournalTornFinalLineCrash is the journal-durability crash test: a
// SIGKILL mid-write leaves a half-frame at EOF. The resume must (1) not
// trust it, (2) physically truncate it so post-resume appends never share
// a line with the torn bytes, and (3) re-run exactly the torn job,
// converging on the uninterrupted digests.
func TestJournalTornFinalLineCrash(t *testing.T) {
	const nJobs = 6
	mk := func() []Job { return testJobs(t, nJobs, 25, 13) }
	cfg := Config{Workers: 2, BaseSeed: 4, Journal: filepath.Join(t.TempDir(), "j.jsonl"), JournalSync: 1}

	ref, err := Run(context.Background(), mk(), cfg)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	data, err := os.ReadFile(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-line, newline and all: the classic shape
	// of a write interrupted by SIGKILL.
	torn := data[:len(data)-7]
	if err := os.WriteFile(cfg.Journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Resume = true
	rep, err := Run(context.Background(), mk(), rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed != nJobs-1 {
		t.Errorf("replayed %d jobs, want %d (the torn record must re-run)", rep.Replayed, nJobs-1)
	}
	if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
		t.Errorf("StateDigest diverged after torn-line crash+resume:\n got: %s\nwant: %s", got, want)
	}
	// The resume repaired the file: the torn line was physically cut off
	// before the re-run job's record was appended, so a re-open finds a
	// fully valid journal — nothing dropped, nothing truncated.
	log, replay, err := wal.Open(cfg.Journal, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if replay.Dropped != 0 || replay.Truncated != 0 {
		t.Errorf("repaired journal still has dropped=%d truncated=%d", replay.Dropped, replay.Truncated)
	}
	if len(replay.Records) != nJobs {
		t.Errorf("repaired journal holds %d records, want %d", len(replay.Records), nJobs)
	}
}

// TestResumeBaseSeedMismatch: a journal written under one seed derivation
// must refuse to resume under another — silently mixing two campaigns'
// results would be worse than failing.
func TestResumeBaseSeedMismatch(t *testing.T) {
	cfg := Config{Workers: 2, BaseSeed: 1, Journal: filepath.Join(t.TempDir(), "j.jsonl")}
	if _, err := Run(context.Background(), testJobs(t, 2, 10, 3), cfg); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	cfg.BaseSeed = 2
	cfg.Resume = true
	_, err := Run(context.Background(), testJobs(t, 2, 10, 3), cfg)
	if err == nil || !strings.Contains(err.Error(), "base seed") {
		t.Fatalf("resume under a different base seed: got %v, want base-seed refusal", err)
	}
}

// TestResumeRequiresJournal: Resume without a Journal path is a
// configuration error, caught before any job runs.
func TestResumeRequiresJournal(t *testing.T) {
	if _, err := Start(context.Background(), Config{Resume: true}); err == nil {
		t.Fatal("Start accepted Resume without a Journal path")
	}
}

// TestFreshRunTruncatesJournal: without Resume, an existing journal at the
// configured path is overwritten, not appended to (stale records from an
// unrelated campaign must not leak into this one's checkpoint).
func TestFreshRunTruncatesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("stale garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), testJobs(t, 2, 10, 3), Config{Workers: 1, Journal: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("stale garbage")) {
		t.Fatal("fresh journaled run kept the stale journal contents")
	}
}

// TestJournalFailureReachesCaller: a journal that fails under a running
// engine, at a record write or only at the final fsync and close, reports
// the failure through JournalErr once Results has closed, and every job is
// still delivered. The failure is forced by closing the journal's file
// under the engine.
func TestJournalFailureReachesCaller(t *testing.T) {
	for _, n := range []int{3, 0} {
		name := "write"
		if n == 0 {
			name = "close" // no record is written, so only the close fails
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Workers: 2, Journal: filepath.Join(t.TempDir(), "j.jsonl")}
			e, err := Start(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.jw.log.Close()
			for i, job := range testJobs(t, n, 10, 3) {
				job.ID = i
				if err := e.Submit(job); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()
			delivered := 0
			for jr := range e.Results() {
				if jr.Err != nil {
					t.Errorf("job %d: %v", jr.Job.ID, jr.Err)
				}
				delivered++
			}
			if delivered != n {
				t.Errorf("delivered %d jobs, want %d", delivered, n)
			}
			if err := e.JournalErr(); err == nil {
				t.Fatal("the journal failure did not reach JournalErr")
			}
		})
	}
}
