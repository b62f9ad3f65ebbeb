package wasai

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/scanner"
	"repro/internal/schedule"
	"repro/internal/store"
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
	// this job (its Seed is honoured verbatim; zero derives base+index).
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
	// StaticTriage pre-analyzes each contract's bytecode and answers
	// provably-clean jobs without fuzzing them (BatchResult.Skipped).
	// Findings are unchanged — only statically-impossible work is skipped —
	// and jobs with custom detectors or trace capture are never skipped.
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
	// Memo is inherited from Config ("off"/"on"/"shared"): in a batch it
	// additionally reuses decoded modules across content-identical
	// submissions and static reports across triage, and with "shared" the
	// cache outlives the batch (resumed or repeated batches start warm).
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
	// Skipped marks a contract answered by static triage without fuzzing
	// (the Report carries the all-clean verdict a campaign would produce).
	Skipped bool
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
	// jobs with at least one vulnerable class; Skipped counts the completed
	// jobs answered by static triage without fuzzing.
	Completed, Failed, Flagged, Skipped int
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
	eng     *campaign.Engine // nil in adaptive (buffered) mode
	start   time.Time
	submits int

	// Adaptive campaigns need a barrier between the fuel-ledger phases,
	// which a streaming pool cannot provide: submissions are buffered here
	// and the two-phase driver runs at Wait.
	ctx     context.Context
	ccfg    campaign.Config
	memo    *memo.Cache
	pending []campaign.Job

	mu     sync.Mutex
	cond   *sync.Cond
	all    []BatchResult // every collected result (completion order)
	buf    []BatchResult // pending delivery to the streaming channel
	closed bool          // the collector has seen the last result

	out chan BatchResult
}

// NewCampaign starts a worker pool for a streaming batch analysis. Cancel
// ctx to abort queued and in-flight jobs. It fails on journal problems:
// an unopenable journal path, or a resume against a journal written under
// a different base seed.
func NewCampaign(ctx context.Context, cfg BatchConfig) (*Campaign, error) {
	mode, err := memo.ParseMode(cfg.Memo)
	if err != nil {
		return nil, fmt.Errorf("wasai: %w", err)
	}
	// StoreDir backs the memo with the shared disk store; it implies
	// memoization (a private cache when Memo is off). Memo="shared" uses
	// the per-store shared cache, never the plain process-wide one — see
	// memo.SharedWithDisk for why attaching there would leak globally.
	var memoCache *memo.Cache
	if cfg.StoreDir != "" {
		disk, err := store.OpenShared(store.Options{Dir: cfg.StoreDir})
		if err != nil {
			return nil, fmt.Errorf("wasai: memo store: %w", err)
		}
		if mode == memo.ModeShared {
			memoCache = memo.SharedWithDisk(disk)
		} else {
			memoCache = memo.ForMode(mode)
			if memoCache == nil {
				memoCache = memo.New()
			}
			memoCache.AttachDisk(disk)
		}
	}
	ccfg := campaign.Config{
		Workers:          cfg.Workers,
		QueueDepth:       cfg.QueueDepth,
		JobTimeout:       cfg.JobTimeout,
		BaseSeed:         cfg.Seed,
		StaticTriage:     cfg.StaticTriage,
		Verdicts:         cfg.Verdicts,
		Journal:          cfg.Journal,
		Resume:           cfg.Resume,
		Retry:            campaign.RetryPolicy{MaxAttempts: cfg.MaxAttempts},
		Memo:             mode,
		MemoCache:        memoCache,
		Adaptive:         cfg.Adaptive,
		SaturationWindow: cfg.SaturationWindow,
	}
	if cfg.Adaptive {
		// Buffered mode: the fuel ledger needs every job at a barrier, so
		// Submit only collects and decodes; the two-phase driver runs at
		// Wait. Submit-time module decoding shares the cache the driver
		// will use.
		if memoCache == nil {
			memoCache = memo.ForMode(mode)
			ccfg.MemoCache = memoCache
		}
		c := &Campaign{
			cfg:   cfg,
			start: time.Now(),
			out:   make(chan BatchResult),
			ctx:   ctx,
			ccfg:  ccfg,
			memo:  memoCache,
		}
		c.cond = sync.NewCond(&c.mu)
		return c, nil
	}
	eng, err := campaign.Start(ctx, ccfg)
	if err != nil {
		return nil, fmt.Errorf("wasai: %w", err)
	}
	c := &Campaign{
		cfg:   cfg,
		eng:   eng,
		start: time.Now(),
		out:   make(chan BatchResult),
	}
	c.cond = sync.NewCond(&c.mu)
	// Collector: drains the engine without ever blocking on the consumer,
	// so an unconsumed Results channel cannot stall the workers.
	go func() {
		for jr := range c.eng.Results() {
			br := toBatchResult(jr)
			c.mu.Lock()
			c.all = append(c.all, br)
			c.buf = append(c.buf, br)
			c.cond.Broadcast()
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.closed = true
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	// Forwarder: feeds the streaming channel from the buffer and closes it
	// once the collector is done and the buffer is drained.
	go func() {
		for {
			c.mu.Lock()
			for len(c.buf) == 0 && !c.closed {
				c.cond.Wait()
			}
			if len(c.buf) == 0 {
				c.mu.Unlock()
				close(c.out)
				return
			}
			br := c.buf[0]
			c.buf = c.buf[1:]
			c.mu.Unlock()
			c.out <- br
		}
	}()
	return c, nil
}

// Submit enqueues one contract. It decodes eagerly so malformed binaries
// fail fast (before occupying a worker) and blocks while the bounded queue
// is full.
func (c *Campaign) Submit(job BatchJob) error {
	index := c.submits
	mod := job.Module
	contractABI := job.ABI
	if mod == nil {
		// Decode through the memo module tier (nil-safe: a plain decode
		// when memoization is off): content-identical binaries across the
		// batch — or across a resumed rerun with a shared cache — are
		// decoded and validated once and share one immutable module.
		var err error
		mod, err = c.memoCache().Module(job.Wasm, func(bin []byte) (*wasm.Module, error) {
			m, err := wasm.Decode(bin)
			if err != nil {
				return nil, err
			}
			if err := wasm.Validate(m); err != nil {
				return nil, err
			}
			return m, nil
		})
		if err != nil {
			return failure.Wrap(failure.Decode, fmt.Errorf("wasai: batch job %d (%s): decode: %w", index, job.Name, err))
		}
	}
	if contractABI == nil {
		contractABI = new(abi.ABI)
		if err := json.Unmarshal(job.ABIJSON, contractABI); err != nil {
			return failure.Wrap(failure.Decode, fmt.Errorf("wasai: batch job %d (%s): parse abi: %w", index, job.Name, err))
		}
	}
	jcfg := c.cfg.Config
	seed := int64(0) // zero: the engine derives base seed + index
	if job.Config != nil {
		jcfg = *job.Config
		seed = jcfg.Seed
	}
	var customs []scanner.CustomDetector
	for _, d := range jcfg.CustomAPIDetectors {
		customs = append(customs, scanner.NewAPICallDetector(d.Name, mod, d.APIs...))
	}
	cjob := campaign.Job{
		ID:     index,
		Name:   job.Name,
		Module: mod,
		ABI:    contractABI,
		Config: fuzz.Config{
			Iterations:       jcfg.Iterations,
			SolverConflicts:  jcfg.SolverConflicts,
			DisableFeedback:  jcfg.DisableFeedback,
			Seed:             seed,
			CustomDetectors:  customs,
			Adaptive:         jcfg.Adaptive,
			SaturationWindow: jcfg.SaturationWindow,
		},
	}
	if c.eng == nil { // adaptive buffered mode
		if err := c.ctx.Err(); err != nil {
			return fmt.Errorf("wasai: submit: %w", err)
		}
		c.pending = append(c.pending, cjob)
		c.submits++
		return nil
	}
	if err := c.eng.Submit(cjob); err != nil {
		return err
	}
	c.submits++
	return nil
}

// memoCache resolves the decode-tier cache for Submit (nil-safe when off).
func (c *Campaign) memoCache() *memo.Cache {
	if c.eng != nil {
		return c.eng.MemoCache()
	}
	return c.memo
}

// Results streams per-contract outcomes in completion order. The channel
// closes once Wait has been called (or the context cancelled) and every
// submitted job has been delivered. Consuming it is optional.
func (c *Campaign) Results() <-chan BatchResult { return c.out }

// Wait ends submission, waits for every job, and returns the aggregate
// with Jobs in submission order. Unconsumed streaming results are drained.
// In adaptive mode this is where the buffered jobs actually run.
func (c *Campaign) Wait() *CampaignReport {
	if c.eng == nil {
		return c.waitAdaptive()
	}
	c.eng.Close()
	for range c.out { // returns once the forwarder closes the channel
	}
	c.mu.Lock()
	all := c.all
	c.mu.Unlock()

	report := &CampaignReport{
		Jobs:       make([]BatchResult, c.submits),
		PerClass:   map[string]int{},
		PerFailure: map[string]int{},
	}
	for _, br := range all {
		report.Jobs[br.Index] = br
	}
	c.tally(report)
	report.Memo = c.eng.MemoStats()
	return report
}

// waitAdaptive runs the buffered jobs through the two-phase fuel-ledger
// driver, streams their results, and aggregates. A driver-level failure
// (cancelled context, unwritable journal) lands on every job: the batch
// has no per-job outcomes to report in that case.
func (c *Campaign) waitAdaptive() *CampaignReport {
	rep, err := campaign.Run(c.ctx, c.pending, c.ccfg)
	report := &CampaignReport{
		Jobs:       make([]BatchResult, c.submits),
		PerClass:   map[string]int{},
		PerFailure: map[string]int{},
	}
	if err != nil {
		for i := range report.Jobs {
			br := BatchResult{Index: i, Err: err, FailureClass: failure.ClassOf(err).String()}
			if i < len(c.pending) {
				br.Name = c.pending[i].Name
			}
			report.Jobs[i] = br
		}
	} else {
		for _, jr := range rep.Results {
			report.Jobs[jr.Job.ID] = toBatchResult(jr)
		}
		report.Memo = rep.Memo
		report.Sched = rep.Sched
	}
	// Deliver the streaming channel late but completely: adaptive results
	// only exist after the barrier-phase run.
	go func() {
		for _, br := range report.Jobs {
			c.out <- br
		}
		close(c.out)
	}()
	for range c.out { // drain whatever no external consumer took
	}
	c.tally(report)
	return report
}

// tally fills the aggregate counters of a report whose Jobs are in place.
func (c *Campaign) tally(report *CampaignReport) {
	for _, br := range report.Jobs {
		if br.Attempts > 1 {
			report.Retried++
		}
		if br.Replayed {
			report.Replayed++
		}
		if br.Err != nil {
			report.Failed++
			report.PerFailure[br.FailureClass]++
			continue
		}
		report.Completed++
		if br.Skipped {
			report.Skipped++
		}
		if br.DegradedMode != "" {
			report.Degraded++
		}
		if br.Report.Vulnerable() {
			report.Flagged++
		}
		for _, f := range br.Report.Findings {
			if f.Vulnerable {
				report.PerClass[f.Class]++
			}
		}
	}
	report.Wall = time.Since(c.start)
	if secs := report.Wall.Seconds(); secs > 0 {
		report.JobsPerSecond = float64(len(report.Jobs)) / secs
	}
}

// toBatchResult converts an engine result to the public form.
func toBatchResult(jr campaign.JobResult) BatchResult {
	br := BatchResult{
		Index:        jr.Job.ID,
		Name:         jr.Job.Name,
		Err:          jr.Err,
		Skipped:      jr.Skipped,
		FailureClass: jr.FailureClass.String(),
		Attempts:     jr.Attempts,
		DegradedMode: jr.DegradedMode,
		Replayed:     jr.Replayed,
		Duration:     jr.Duration,
	}
	if jr.Err != nil {
		return br
	}
	res := jr.Result
	report := &Report{
		Coverage:      res.Coverage,
		AdaptiveSeeds: res.AdaptiveSeeds,
		Iterations:    res.Iterations,
		Custom:        res.Custom,
	}
	for _, class := range contractgen.Classes {
		report.Findings = append(report.Findings, Finding{
			Class:      class.String(),
			Vulnerable: res.Report.Vulnerable[class],
		})
	}
	br.Report = report
	return br
}
