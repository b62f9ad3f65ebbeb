package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/scanner"
	"repro/internal/schedule"
	"repro/internal/symbolic"
	"repro/internal/wal"
)

// journal.go implements the checkpoint/resume layer: an append-only
// journal that records one record per completed job, on top of the
// crash-safe WAL (internal/wal — CRC-framed records, explicit fsync
// policy, torn-tail truncation). A crashed or killed campaign is resumed
// by re-running with Config.Resume: journaled jobs are answered by replay
// (no fuzzing), the rest run normally, and the final report is
// byte-identical to an uninterrupted run's — replay preserves verdicts,
// counters, degradation modes and even failure strings exactly.
//
// The journal deliberately stores outcomes, not progress: jobs are the
// unit of checkpointing because they are the unit of determinism (seeds
// derive from job IDs). Mid-job state (RNG position, seed pools, coverage
// maps) never touches disk. Trace payloads (fuzz.Config.KeepTraces) and
// the coverage time series are also not journaled — replayed results
// carry verdicts and scalar counters only.
//
// Durability: the WAL fsyncs its header before the first job record and
// then every Config.JournalSync records (default wal.DefaultSyncEvery), so
// a SIGKILL loses at most the last unsynced handful of outcomes — which a
// resume simply re-runs — and never a torn line (the WAL truncates those
// on open).

// journalMeta is the WAL header blob: it pins the seed derivation so a
// journal cannot be resumed under a different campaign.
type journalMeta struct {
	BaseSeed int64 `json:"base_seed"`
}

// journalRecord is one journaled job outcome (the payload of one WAL
// record; framing and checksumming live in internal/wal). Decoding ignores
// unknown keys, so records that carry keys this version no longer writes,
// such as "skipped", still resume.
type journalRecord struct {
	ID           int                   `json:"id"`
	Name         string                `json:"name,omitempty"`
	Err          string                `json:"err,omitempty"`
	Failure      string                `json:"failure,omitempty"`
	Attempts     int                   `json:"attempts,omitempty"`
	DegradedMode string                `json:"degraded,omitempty"`
	Flagged      []int                 `json:"flagged,omitempty"`
	Custom       map[string]bool       `json:"custom,omitempty"`
	Coverage     int                   `json:"coverage,omitempty"`
	Adaptive     int                   `json:"adaptive,omitempty"`
	Iterations   int                   `json:"iterations,omitempty"`
	ReplayErrors int                   `json:"replay_errors,omitempty"`
	Solver       *symbolic.SolverStats `json:"solver,omitempty"`
	Sched        *schedRecord          `json:"sched,omitempty"`
}

// schedRecord checkpoints a job's adaptive-scheduling state: the final
// counters (replayed into the state digest) and the phase-1 summary the
// fuel ledger ranked the job by. The summary is what makes kill+resume
// reproduce the same adaptive digest — a resumed campaign feeds replayed
// summaries and live ones into the same pure Reallocate, so the remaining
// jobs receive exactly the grants of the uninterrupted run.
type schedRecord struct {
	// Final result state.
	Saturated bool `json:"saturated,omitempty"`
	Energy    int  `json:"energy,omitempty"`
	Composite int  `json:"composite,omitempty"`
	Skips     int  `json:"skips,omitempty"`
	// Phase-1 summary (ledger recomputation on resume). Executed marks a
	// job whose phase 1 completed — failed-later jobs still contribute.
	Executed    bool `json:"p1_ok,omitempty"`
	P1Saturated bool `json:"p1_saturated,omitempty"`
	Unspent     int  `json:"unspent,omitempty"`
	P1Coverage  int  `json:"p1_coverage,omitempty"`
	P1Iters     int  `json:"p1_iters,omitempty"`
	Grant       int  `json:"grant,omitempty"`
}

// recordOf flattens a completed JobResult into its journal record.
func recordOf(jr JobResult) journalRecord {
	rec := journalRecord{
		ID:           jr.Job.ID,
		Name:         jr.Job.Name,
		Attempts:     jr.Attempts,
		DegradedMode: jr.DegradedMode,
	}
	if jr.Err != nil {
		rec.Err = jr.Err.Error()
		rec.Failure = jr.FailureClass.String()
		return rec
	}
	res := jr.Result
	for _, class := range contractgen.Classes {
		if res.Report.Vulnerable[class] {
			rec.Flagged = append(rec.Flagged, int(class))
		}
	}
	rec.Custom = res.Custom
	rec.Coverage = res.Coverage
	rec.Adaptive = res.AdaptiveSeeds
	rec.Iterations = res.Iterations
	rec.ReplayErrors = res.ReplayErrors
	if res.SolverStats != (symbolic.SolverStats{}) {
		stats := res.SolverStats
		rec.Solver = &stats
	}
	if !res.Sched.Zero() || res.Saturated {
		rec.Sched = &schedRecord{
			Saturated: res.Saturated,
			Energy:    res.Sched.EnergyUpdates,
			Composite: res.Sched.CompositeFired,
			Skips:     res.Sched.SaturationSkips,
		}
	}
	return rec
}

// replayedError restores a journaled failure. It reproduces the original
// message byte-for-byte (digest identity) while the failure class rides
// alongside in the record, so classification survives the round trip even
// though the original error chain cannot.
type replayedError struct{ msg string }

func (e *replayedError) Error() string { return e.msg }

// toResult reconstitutes the JobResult for a journaled job. The caller
// supplies the Job (modules are not journaled — the resumed run re-submits
// the same population).
func (rec *journalRecord) toResult(job Job) JobResult {
	jr := JobResult{
		Job:          job,
		Attempts:     rec.Attempts,
		DegradedMode: rec.DegradedMode,
		Replayed:     true,
	}
	if rec.Err != "" {
		jr.Err = &replayedError{msg: rec.Err}
		jr.FailureClass = failure.ParseClass(rec.Failure)
		return jr
	}
	report := scanner.NewReport()
	for _, c := range rec.Flagged {
		report.Vulnerable[contractgen.Class(c)] = true
	}
	custom := rec.Custom
	if custom == nil {
		custom = map[string]bool{}
	}
	jr.Result = &fuzz.Result{
		Report:        report,
		Coverage:      rec.Coverage,
		AdaptiveSeeds: rec.Adaptive,
		Iterations:    rec.Iterations,
		ReplayErrors:  rec.ReplayErrors,
		Custom:        custom,
	}
	if rec.Solver != nil {
		jr.Result.SolverStats = *rec.Solver
	}
	if rec.Sched != nil {
		jr.Result.Saturated = rec.Sched.Saturated
		jr.Result.Sched = schedule.Counters{
			EnergyUpdates:   rec.Sched.Energy,
			CompositeFired:  rec.Sched.Composite,
			SaturationSkips: rec.Sched.Skips,
		}
	}
	return jr
}

// journalWriter appends job records to the WAL, serialized across workers.
// Marshal failures stick just like the WAL's own write failures: later
// appends are dropped rather than mixing a partial stream into a journal
// that would resume wrong.
type journalWriter struct {
	log *wal.Log

	mu  sync.Mutex
	err error
}

func (w *journalWriter) append(rec journalRecord) error {
	if err := w.Err(); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		err = fmt.Errorf("campaign: journal: %w", err)
		w.fail(err)
		return err
	}
	if err := w.log.Append(b); err != nil {
		err = fmt.Errorf("campaign: journal: %w", err)
		w.fail(err)
		return err
	}
	return nil
}

func (w *journalWriter) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// Err returns the sticky first failure, if any.
func (w *journalWriter) Err() error {
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if err := w.log.Err(); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. A failure sticks like a write
// failure: the records the final fsync did not cover may be lost.
func (w *journalWriter) Close() {
	if err := w.log.Close(); err != nil {
		w.fail(fmt.Errorf("campaign: journal: %w", err))
	}
}

// decodeJournal converts replayed WAL payloads into the journaled job map.
// Records that fail to unmarshal are dropped (the WAL already CRC-checked
// them, so this only guards against foreign payloads).
func decodeJournal(replay *wal.Replay) map[int]*journalRecord {
	done := map[int]*journalRecord{}
	for _, payload := range replay.Records {
		rec := &journalRecord{}
		if err := json.Unmarshal(payload, rec); err != nil {
			continue
		}
		done[rec.ID] = rec
	}
	return done
}

// openJournal prepares the engine's journal state from the config: the
// set of already-completed jobs (resume) and the open append handle.
func openJournal(cfg Config) (map[int]*journalRecord, *journalWriter, error) {
	if cfg.Journal == "" {
		if cfg.Resume {
			// Configuration misuse surfaced to the caller before any job
			// runs — never classified, never retried.
			return nil, nil, fmt.Errorf("campaign: Resume requires a Journal path") //wasai:rawerr config validation

		}
		return nil, nil, nil
	}
	meta, err := json.Marshal(journalMeta{BaseSeed: cfg.BaseSeed})
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: journal: %w", err)
	}
	opts := wal.Options{SyncEvery: cfg.JournalSync, Meta: meta}
	if !cfg.Resume {
		log, err := wal.Create(cfg.Journal, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: journal: %w", err)
		}
		return nil, &journalWriter{log: log}, nil
	}
	log, replay, err := wal.Open(cfg.Journal, opts)
	if err != nil {
		if os.IsNotExist(err) {
			// Nothing to resume: behave like a fresh journaled run.
			log, err := wal.Create(cfg.Journal, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("campaign: journal: %w", err)
			}
			return nil, &journalWriter{log: log}, nil
		}
		return nil, nil, fmt.Errorf("campaign: journal: %w", err)
	}
	if replay.Meta != nil {
		var m journalMeta
		if err := json.Unmarshal(replay.Meta, &m); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("campaign: journal %s: header: %w", cfg.Journal, err)
		}
		if m.BaseSeed != cfg.BaseSeed {
			log.Close()
			//wasai:rawerr config validation, surfaced before any job runs
			return nil, nil, fmt.Errorf("campaign: journal %s was written with base seed %d, refusing to resume with %d",
				cfg.Journal, m.BaseSeed, cfg.BaseSeed)
		}
	}
	return decodeJournal(replay), &journalWriter{log: log}, nil
}
