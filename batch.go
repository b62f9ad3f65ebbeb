package wasai

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/campaign"
	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/scanner"
	"repro/internal/schedule"
	"repro/internal/wasm"
)

// BatchJob is one contract in a batch analysis. Provide either the raw
// binary + ABI JSON (Wasm/ABIJSON) or the decoded forms (Module/ABI); the
// decoded forms win when both are set.
type BatchJob struct {
	// Name labels the contract in the campaign report.
	Name string
	// Wasm and ABIJSON are the contract binary and its ABI, as Analyze
	// takes them.
	Wasm    []byte
	ABIJSON []byte
	// Module and ABI are the pre-decoded forms, as AnalyzeModule takes
	// them (used when scanning populations already in memory).
	Module *wasm.Module
	ABI    *abi.ABI
	// Config, when non-nil, overrides the batch-level analysis Config for
	// this job. The override honours the per-contract fields: Iterations,
	// SolverConflicts, DisableFeedback, CustomAPIDetectors, Adaptive and
	// SaturationWindow (the job's own power schedule; the fuel ledger is
	// BatchConfig.Adaptive's), and Seed, verbatim (zero derives
	// base+index). The engine options (Memo, StoreDir) and TraceFile are
	// batch-wide, taken from BatchConfig alone.
	Config *Config
}

// BatchConfig tunes AnalyzeBatch and Campaign.
type BatchConfig struct {
	// Config is the per-contract analysis configuration. Its Seed is the
	// batch base seed: job i fuzzes with Seed+i, so findings are identical
	// regardless of worker count. TraceFile is ignored in batch mode.
	Config
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// JobTimeout is the per-contract deadline (0 = none). A contract that
	// exceeds it fails its own job; the rest of the batch proceeds.
	JobTimeout time.Duration
	// QueueDepth bounds Campaign.Submit backpressure (0 = 2×Workers).
	QueueDepth int
	// Deprecated: has no effect. No pre-execution triage exists: every
	// contract of a batch is fuzzed.
	StaticTriage bool
	// Journal, when non-empty, checkpoints every completed contract to an
	// append-only JSONL file at this path, so a killed batch can be
	// resumed without repeating finished work.
	Journal string
	// Resume replays contracts already recorded in the Journal instead of
	// re-fuzzing them. The resumed batch must submit the same population
	// with the same base seed; its report is then byte-identical to an
	// uninterrupted run's.
	Resume bool
	// MaxAttempts retries failed contracts with degraded budgets (reduced
	// fuel, then concrete-only fuzzing). 0 or 1 disables retries.
	MaxAttempts int
	// Memo is inherited from Config ("off"/"on"/"shared"). Whatever it
	// says, a batch decodes content-identical Wasm bytes once into one
	// module, so their jobs share one per-bytecode artifact on each worker
	// (the instrumented and compiled module and its replay outcomes). Memo
	// chooses the scope of that module tier: off keeps a tier private to
	// the batch and turns on nothing else; on and shared decode through
	// the memo cache, which also reuses solver answers, and with shared
	// outlives the batch (resumed or repeated batches start warm).
	// Findings are unchanged at any worker count; only duplicated work is
	// skipped. (The field itself lives on the embedded Config.)
}

// DefaultBatchConfig returns the paper's per-contract configuration with
// one worker per core.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{Config: DefaultConfig()}
}

// BatchResult is one contract's outcome within a campaign.
type BatchResult struct {
	// Index is the job's position in the batch (its seed derivation).
	Index int
	// Name echoes BatchJob.Name.
	Name string
	// Report is the analysis outcome; nil when Err is non-nil.
	Report *Report
	// Err is the job's failure: decode/setup errors, the per-job deadline
	// (context.DeadlineExceeded), or a recovered panic.
	Err error
	// FailureClass names the failure taxonomy class of Err ("none" when
	// the job succeeded; see internal/failure).
	FailureClass string
	// Attempts counts the tries the job consumed; DegradedMode labels the
	// degradation of the accepted attempt ("" = ran as configured).
	Attempts     int
	DegradedMode string
	// Replayed marks a result restored from a resume journal.
	Replayed bool
	// Duration is the job's wall-clock time.
	Duration time.Duration
}

// CampaignReport aggregates a batch analysis.
type CampaignReport struct {
	// Jobs holds one entry per submitted contract, in submission order.
	Jobs []BatchResult
	// Completed and Failed partition the jobs; Flagged counts completed
	// jobs with at least one vulnerable class.
	Completed, Failed, Flagged int
	// Deprecated: always 0. Every contract of a batch is fuzzed.
	Skipped int
	// Degraded, Retried and Replayed count the resilience outcomes:
	// results accepted from a degraded attempt, jobs needing more than one
	// attempt, and results restored from a resume journal.
	Degraded, Retried, Replayed int
	// PerClass counts flagged contracts per vulnerability class name.
	PerClass map[string]int
	// PerFailure counts failed jobs per failure-class name (the taxonomy
	// of internal/failure: decode, trap, timeout, solver-exhausted, panic,
	// oom-guard).
	PerFailure map[string]int
	// Wall is the batch wall-clock time; JobsPerSecond the throughput.
	Wall          time.Duration
	JobsPerSecond float64
	// Memo holds the batch's cache-counter delta when memoization was
	// active (nil when off). Reporting-only: hit counts can vary with
	// worker scheduling, findings never do.
	Memo *memo.Stats
	// Sched totals the adaptive scheduler's counters — energy updates,
	// composite arms fired, saturation skips, and the campaign fuel-ledger
	// flows. Zero unless BatchConfig.Adaptive.
	Sched schedule.Counters
	// JournalErr is the checkpoint journal's failure (BatchConfig.Journal),
	// if any: the findings are complete, but resuming from that journal is
	// not safe.
	JournalErr error
}

// AnalyzeBatch fuzzes every contract of the batch on a worker pool and
// returns the aggregated campaign report. Each job runs in an isolated
// chain + fuzzer with seed cfg.Seed+index, so the findings equal a serial
// loop of Analyze over the same contracts (the engine's differential tests
// assert exactly that). Per-job failures land in the report; AnalyzeBatch
// itself fails only on a cancelled context or a malformed submission.
func AnalyzeBatch(ctx context.Context, jobs []BatchJob, cfg BatchConfig) (*CampaignReport, error) {
	c, err := NewCampaign(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		if err := c.Submit(jobs[i]); err != nil {
			c.Wait()
			return nil, err
		}
	}
	return c.Wait(), nil
}

// Campaign is the streaming form of AnalyzeBatch: submit contracts as a
// producer discovers them (Submit blocks on backpressure once QueueDepth
// jobs are queued with the workers), consume Results incrementally if
// desired, then Wait for the aggregate.
type Campaign struct {
	cfg     BatchConfig
	eng     *campaign.Engine
	modules *memo.Cache // Submit decodes through its module tier
	start   time.Time

	submitMu sync.Mutex // held across Submit: each job takes the next index
	submits  int

	mu      sync.Mutex
	cond    *sync.Cond
	results []campaign.JobResult // every collected result (completion order)
	closed  bool                 // the collector has seen the last result

	stream sync.Once
	out    chan BatchResult
}

// NewCampaign starts a worker pool for a streaming batch analysis. Cancel
// ctx to abort queued and in-flight jobs. It fails on journal problems:
// an unopenable journal path, or a resume against a journal written under
// a different base seed.
func NewCampaign(ctx context.Context, cfg BatchConfig) (*Campaign, error) {
	memoCache, err := cfg.openMemo()
	if err != nil {
		return nil, err
	}
	eng, err := campaign.Start(ctx, campaign.Config{
		Workers:          cfg.Workers,
		QueueDepth:       cfg.QueueDepth,
		JobTimeout:       cfg.JobTimeout,
		BaseSeed:         cfg.Seed,
		Journal:          cfg.Journal,
		Resume:           cfg.Resume,
		Retry:            campaign.RetryPolicy{MaxAttempts: cfg.MaxAttempts},
		MemoCache:        memoCache,
		Adaptive:         cfg.Adaptive,
		SaturationWindow: cfg.SaturationWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("wasai: %w", err)
	}
	modules := memoCache
	if modules == nil {
		// Without memoization the batch still decodes each distinct
		// binary once, through a cache of its own that the engine never
		// sees: its solver tier stays unused.
		modules = memo.New()
	}
	c := &Campaign{
		cfg:     cfg,
		eng:     eng,
		modules: modules,
		start:   time.Now(),
		out:     make(chan BatchResult),
	}
	c.cond = sync.NewCond(&c.mu)
	// Collector: drains the engine without ever blocking on the consumer,
	// so an unconsumed Results channel cannot stall the workers. A kept
	// result drops its job's module, ABI and detectors: only the ID and
	// name are read again.
	go func() {
		for jr := range c.eng.Results() {
			jr.Job = campaign.Job{ID: jr.Job.ID, Name: jr.Job.Name}
			c.mu.Lock()
			c.results = append(c.results, jr)
			c.cond.Broadcast()
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.closed = true
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	return c, nil
}

// Submit enqueues one contract. It decodes eagerly so malformed binaries
// fail fast (before occupying a worker) and blocks while the bounded queue
// is full. It fails once the context is cancelled or Wait has been called.
// Producers may call it concurrently; their contracts take indices in the
// order their Submits run.
func (c *Campaign) Submit(job BatchJob) error {
	// The lock is held while the engine blocks on backpressure: Wait's
	// Close, or cancelling the context, interrupts that wait.
	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	index := c.submits
	mod, contractABI, err := job.decode(c.modules)
	if err != nil {
		return fmt.Errorf("wasai: batch job %d (%s): %w", index, job.Name, err)
	}
	jcfg := c.cfg.Config
	seed := int64(0) // zero: the engine derives base seed + index
	if job.Config != nil {
		jcfg = *job.Config
		seed = jcfg.Seed
	}
	if err := c.eng.Submit(jcfg.job(index, job.Name, mod, contractABI, seed)); err != nil {
		return err
	}
	c.submits++
	return nil
}

// decode returns the job's contract: the decoded forms where set, else the
// binary decoded and validated through the module tier of modules (nil
// decodes afresh) and the parsed ABI JSON. Content-identical binaries
// across a batch, or across a resumed rerun with a shared cache, then
// share one immutable module, and with it one artifact per worker.
func (job BatchJob) decode(modules *memo.Cache) (*wasm.Module, *abi.ABI, error) {
	mod, contractABI := job.Module, job.ABI
	if mod == nil {
		var err error
		mod, err = modules.Module(job.Wasm, func(bin []byte) (*wasm.Module, error) {
			m, err := wasm.Decode(bin)
			if err != nil {
				return nil, fmt.Errorf("decode contract: %w", err)
			}
			if err := wasm.Validate(m); err != nil {
				return nil, fmt.Errorf("validate contract: %w", err)
			}
			return m, nil
		})
		if err != nil {
			return nil, nil, failure.Wrap(failure.Decode, err)
		}
	}
	if contractABI == nil {
		contractABI = new(abi.ABI)
		if err := json.Unmarshal(job.ABIJSON, contractABI); err != nil {
			return nil, nil, failure.Wrap(failure.Decode, fmt.Errorf("parse abi: %w", err))
		}
	}
	return mod, contractABI, nil
}

// job maps the analysis configuration onto one engine job: the budget,
// feedback, seed (zero: the engine derives base seed + id), custom
// detectors and the job's own adaptive schedule.
func (cfg Config) job(id int, name string, mod *wasm.Module, contractABI *abi.ABI, seed int64) campaign.Job {
	var customs []scanner.CustomDetector
	for _, d := range cfg.CustomAPIDetectors {
		customs = append(customs, scanner.NewAPICallDetector(d.Name, mod, d.APIs...))
	}
	return campaign.Job{
		ID:     id,
		Name:   name,
		Module: mod,
		ABI:    contractABI,
		Config: fuzz.Config{
			Iterations:       cfg.Iterations,
			SolverConflicts:  cfg.SolverConflicts,
			DisableFeedback:  cfg.DisableFeedback,
			Seed:             seed,
			CustomDetectors:  customs,
			Adaptive:         cfg.Adaptive,
			SaturationWindow: cfg.SaturationWindow,
		},
	}
}

// Results streams per-contract outcomes in completion order. The first
// call starts the stream, and its caller must drain the channel until it
// closes, which happens once Wait has been called and every submitted
// contract has been delivered. An adaptive batch delivers its fuzzed
// contracts only after Wait has been called: the fuel ledger regrants
// iterations once every contract has settled. Consuming Results is
// optional; Wait never takes results from it.
func (c *Campaign) Results() <-chan BatchResult {
	c.stream.Do(func() {
		go func() {
			for i := 0; ; i++ {
				c.mu.Lock()
				for i == len(c.results) && !c.closed {
					c.cond.Wait()
				}
				if i == len(c.results) {
					c.mu.Unlock()
					close(c.out)
					return
				}
				jr := c.results[i]
				c.mu.Unlock()
				c.out <- toBatchResult(jr)
			}
		}()
	})
	return c.out
}

// Wait ends submission, waits for every job, and returns the aggregate
// with Jobs in submission order. Submit fails after Wait.
func (c *Campaign) Wait() *CampaignReport {
	c.eng.Close()
	c.mu.Lock()
	for !c.closed {
		c.cond.Wait()
	}
	collected := c.results
	c.mu.Unlock()

	c.submitMu.Lock()
	results := make([]campaign.JobResult, c.submits)
	c.submitMu.Unlock()
	for _, jr := range collected {
		results[jr.Job.ID] = jr
	}
	rep := c.eng.Report(results, time.Since(c.start))
	report := &CampaignReport{
		Jobs:          make([]BatchResult, len(results)),
		Completed:     rep.Completed,
		Failed:        rep.Failed,
		Flagged:       rep.Flagged,
		Degraded:      rep.Degraded,
		Retried:       rep.Retried,
		Replayed:      rep.Replayed,
		PerClass:      map[string]int{},
		PerFailure:    map[string]int{},
		Wall:          rep.Wall,
		JobsPerSecond: rep.JobsPerSecond,
		Memo:          rep.Memo,
		Sched:         rep.Sched,
		JournalErr:    c.eng.JournalErr(),
	}
	for i, jr := range results {
		report.Jobs[i] = toBatchResult(jr)
	}
	for class, n := range rep.PerClass {
		report.PerClass[class.String()] = n
	}
	for class, n := range rep.PerFailure {
		report.PerFailure[class.String()] = n
	}
	return report
}

// toBatchResult converts an engine result to the public form.
func toBatchResult(jr campaign.JobResult) BatchResult {
	br := BatchResult{
		Index:        jr.Job.ID,
		Name:         jr.Job.Name,
		Err:          jr.Err,
		FailureClass: jr.FailureClass.String(),
		Attempts:     jr.Attempts,
		DegradedMode: jr.DegradedMode,
		Replayed:     jr.Replayed,
		Duration:     jr.Duration,
	}
	if jr.Err != nil {
		return br
	}
	br.Report = newReport(jr.Result)
	return br
}
