package wasai

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	wasmpkg "repro/internal/wasm"
)

// batchContracts generates a deterministic mixed batch; even-indexed jobs
// are submitted as raw bytes (the Analyze form), odd-indexed ones as
// decoded modules (the AnalyzeModule form), so both intake paths are
// differentially tested.
func batchContracts(tb testing.TB, n int) ([]*contractgen.Contract, []BatchJob) {
	tb.Helper()
	rng := rand.New(rand.NewSource(77))
	contracts := make([]*contractgen.Contract, n)
	jobs := make([]BatchJob, n)
	for i := 0; i < n; i++ {
		class := contractgen.Classes[i%len(contractgen.Classes)]
		c, err := contractgen.Generate(contractgen.RandomSpec(class, i%2 == 0, rng))
		if err != nil {
			tb.Fatalf("generate %d: %v", i, err)
		}
		contracts[i] = c
		jobs[i] = BatchJob{Name: fmt.Sprintf("c%02d", i)}
		if i%2 == 0 {
			bin, err := wasmpkg.Encode(c.Module)
			if err != nil {
				tb.Fatalf("encode %d: %v", i, err)
			}
			abiJSON, err := json.Marshal(c.ABI)
			if err != nil {
				tb.Fatalf("marshal abi %d: %v", i, err)
			}
			jobs[i].Wasm, jobs[i].ABIJSON = bin, abiJSON
		} else {
			jobs[i].Module, jobs[i].ABI = c.Module, c.ABI
		}
	}
	return contracts, jobs
}

// TestAnalyzeBatchMatchesSerial is the facade's differential test: the
// batch findings must equal a serial loop of Analyze over the same
// contracts with the documented seed derivation (base + index) — for every
// contract and every vulnerability class.
func TestAnalyzeBatchMatchesSerial(t *testing.T) {
	contracts, jobs := batchContracts(t, 12)
	// Resubmit some byte-form contracts at later indices, so with other
	// seeds: their jobs share one decoded module, and with it one artifact
	// per worker, with the original's jobs.
	for k, i := range []int{0, 4, 0, 8} {
		dup := jobs[i]
		dup.Name = fmt.Sprintf("dup%d-of-c%02d", k, i)
		jobs = append(jobs, dup)
		contracts = append(contracts, contracts[i])
	}
	n := len(jobs)

	cfg := DefaultBatchConfig()
	cfg.Iterations = 40
	cfg.Seed = 5
	cfg.Workers = 4
	report, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if len(report.Jobs) != n || report.Completed != n || report.Failed != 0 {
		t.Fatalf("jobs=%d completed=%d failed=%d, want %d/%d/0",
			len(report.Jobs), report.Completed, report.Failed, n, n)
	}

	serialPerClass := map[string]int{}
	for i, c := range contracts {
		scfg := cfg.Config
		scfg.Seed = cfg.Seed + int64(i)
		serial, err := AnalyzeModule(c.Module, c.ABI, scfg)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		batch := report.Jobs[i]
		if batch.Err != nil {
			t.Fatalf("batch job %d: %v", i, batch.Err)
		}
		if !reflect.DeepEqual(batch.Report.Findings, serial.Findings) {
			t.Errorf("contract %d findings diverge:\nbatch:  %+v\nserial: %+v",
				i, batch.Report.Findings, serial.Findings)
		}
		if batch.Report.Coverage != serial.Coverage {
			t.Errorf("contract %d coverage: batch %d, serial %d", i, batch.Report.Coverage, serial.Coverage)
		}
		if batch.Report.AdaptiveSeeds != serial.AdaptiveSeeds {
			t.Errorf("contract %d adaptive seeds: batch %d, serial %d",
				i, batch.Report.AdaptiveSeeds, serial.AdaptiveSeeds)
		}
		if batch.Report.Iterations != serial.Iterations {
			t.Errorf("contract %d iterations: batch %d, serial %d",
				i, batch.Report.Iterations, serial.Iterations)
		}
		for _, f := range serial.Findings {
			if f.Vulnerable {
				serialPerClass[f.Class]++
			}
		}
	}
	if !reflect.DeepEqual(report.PerClass, serialPerClass) {
		t.Errorf("per-class aggregate diverges: batch %v, serial %v", report.PerClass, serialPerClass)
	}
}

// TestCampaignStreaming drives the streaming form: results arrive on the
// channel while jobs are still being submitted, and Wait reassembles
// submission order regardless of completion order.
func TestCampaignStreaming(t *testing.T) {
	const n = 8
	_, jobs := batchContracts(t, n)
	cfg := DefaultBatchConfig()
	cfg.Iterations = 25
	cfg.Workers = 4

	c, err := NewCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := range jobs {
			if err := c.Submit(jobs[i]); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
	}()
	streamed := 0
	for range c.Results() {
		streamed++
		if streamed == n {
			break // every job has arrived; the channel closes after Wait
		}
	}
	report := c.Wait()
	if len(report.Jobs) != n {
		t.Fatalf("got %d jobs, want %d", len(report.Jobs), n)
	}
	for i, br := range report.Jobs {
		if br.Index != i {
			t.Fatalf("slot %d holds index %d: Wait must restore submission order", i, br.Index)
		}
		if br.Name != fmt.Sprintf("c%02d", i) {
			t.Fatalf("slot %d holds %q", i, br.Name)
		}
		if br.Err != nil {
			t.Fatalf("job %d: %v", i, br.Err)
		}
	}
}

// TestCampaignUnconsumedResults: never reading Results must not deadlock
// Submit or Wait, even with a batch far larger than the queue.
func TestCampaignUnconsumedResults(t *testing.T) {
	const n = 10
	_, jobs := batchContracts(t, n)
	cfg := DefaultBatchConfig()
	cfg.Iterations = 10
	cfg.Workers = 2
	cfg.QueueDepth = 1

	c, err := NewCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if err := c.Submit(jobs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	report := c.Wait()
	if report.Completed != n {
		t.Fatalf("completed=%d, want %d", report.Completed, n)
	}
}

// TestAnalyzeBatchRejectsGarbage: a malformed submission fails the whole
// call eagerly (before occupying a worker), identifying the job.
func TestAnalyzeBatchRejectsGarbage(t *testing.T) {
	_, jobs := batchContracts(t, 2)
	bad := BatchJob{Name: "garbage", Wasm: []byte("not wasm"), ABIJSON: []byte("{}")}
	_, err := AnalyzeBatch(context.Background(), append(jobs[:1], bad), DefaultBatchConfig())
	if err == nil {
		t.Fatal("want decode error")
	}
}

// TestBatchJobConfigOverride: a job carrying its own Config (including an
// explicit seed) must reproduce a standalone AnalyzeModule run with that
// exact configuration, regardless of the batch defaults.
func TestBatchJobConfigOverride(t *testing.T) {
	contracts, jobs := batchContracts(t, 3)
	override := DefaultConfig()
	override.Iterations = 30
	override.Seed = 4242
	jobs[1].Config = &override

	cfg := DefaultBatchConfig()
	cfg.Iterations = 15
	cfg.Seed = 9
	report, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeModule(contracts[1].Module, contracts[1].ABI, override)
	if err != nil {
		t.Fatal(err)
	}
	got := report.Jobs[1]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Report.Iterations != 30 {
		t.Fatalf("override iterations not applied: ran %d", got.Report.Iterations)
	}
	if !reflect.DeepEqual(got.Report.Findings, want.Findings) {
		t.Errorf("override job diverges from standalone run:\nbatch:      %+v\nstandalone: %+v",
			got.Report.Findings, want.Findings)
	}
}

// TestBatchStoreDirWarmStart: BatchConfig.StoreDir persists solver
// verdicts to the disk store, so a second batch over the same contracts
// (with a cold in-memory cache) answers queries from disk — with findings
// identical to a store-less run.
func TestBatchStoreDirWarmStart(t *testing.T) {
	const n = 6
	_, jobs := batchContracts(t, n)

	cfg := DefaultBatchConfig()
	cfg.Iterations = 40
	cfg.Seed = 5
	cfg.Workers = 2

	plain, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Memo stays off: StoreDir alone must imply a (private) cache, so each
	// batch starts with cold memory tiers and only the disk is shared.
	cfg.StoreDir = t.TempDir()
	cold, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := range plain.Jobs {
		for _, r := range []*CampaignReport{cold, warm} {
			if !reflect.DeepEqual(r.Jobs[i].Report.Findings, plain.Jobs[i].Report.Findings) {
				t.Errorf("contract %d: findings diverge with StoreDir set:\n got: %+v\nwant: %+v",
					i, r.Jobs[i].Report.Findings, plain.Jobs[i].Report.Findings)
			}
		}
	}
	if cold.Memo == nil || warm.Memo == nil {
		t.Fatalf("StoreDir did not imply memoization: cold=%v warm=%v", cold.Memo, warm.Memo)
	}
	if warm.Memo.StoreHits == 0 {
		t.Errorf("warm batch answered nothing from the disk store: %+v", warm.Memo)
	}
}

// TestAnalyzeBatchAdaptiveMatchesRun: an adaptive batch whose fuel ledger
// moves fuel must equal campaign.Run over the same jobs — per-job findings,
// iterations and coverage, and the ledger totals.
func TestAnalyzeBatchAdaptiveMatchesRun(t *testing.T) {
	const n = 10
	contracts, jobs := batchContracts(t, n)
	cfg := DefaultBatchConfig()
	cfg.Iterations = 40
	cfg.Seed = 3
	cfg.Workers = 4
	cfg.Adaptive = true
	cfg.SaturationWindow = 8

	report, err := AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	cjobs := make([]campaign.Job, n)
	for i, c := range contracts {
		cjobs[i] = campaign.Job{
			Name:   jobs[i].Name,
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{Iterations: cfg.Iterations, SolverConflicts: cfg.SolverConflicts},
		}
	}
	want, err := campaign.Run(context.Background(), cjobs, campaign.Config{
		Workers:          cfg.Workers,
		BaseSeed:         cfg.Seed,
		Adaptive:         true,
		SaturationWindow: cfg.SaturationWindow,
	})
	if err != nil {
		t.Fatalf("campaign.Run: %v", err)
	}
	if want.Sched.FuelReallocated == 0 {
		t.Fatalf("the fuel ledger moved no fuel: %+v", want.Sched)
	}
	for i, jr := range want.Results {
		got := report.Jobs[i]
		if got.Err != nil || jr.Err != nil {
			t.Fatalf("job %d: batch err %v, run err %v", i, got.Err, jr.Err)
		}
		if got.Report.Iterations != jr.Result.Iterations || got.Report.Coverage != jr.Result.Coverage {
			t.Errorf("job %d: batch iterations/coverage %d/%d, run %d/%d", i,
				got.Report.Iterations, got.Report.Coverage, jr.Result.Iterations, jr.Result.Coverage)
		}
		for _, f := range got.Report.Findings {
			if want := jr.Result.Report.Vulnerable[classByName(t, f.Class)]; f.Vulnerable != want {
				t.Errorf("job %d %s: batch %v, run %v", i, f.Class, f.Vulnerable, want)
			}
		}
	}
	if got, want := report.Sched, want.Sched; got.FuelReturned != want.FuelReturned ||
		got.FuelReallocated != want.FuelReallocated || got.SaturatedJobs != want.SaturatedJobs {
		t.Errorf("fuel totals: batch %+v, run %+v", got, want)
	}
}

// TestCampaignAdaptiveStreamsEveryJobOnce: a consumer draining Results
// while Wait runs sees every contract of an adaptive batch exactly once,
// with the same findings as the report.
func TestCampaignAdaptiveStreamsEveryJobOnce(t *testing.T) {
	const n = 10
	_, jobs := batchContracts(t, n)
	cfg := DefaultBatchConfig()
	cfg.Iterations = 40
	cfg.Seed = 3
	cfg.Workers = 4
	cfg.Adaptive = true
	cfg.SaturationWindow = 8

	c, err := NewCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan []BatchResult)
	go func() {
		var got []BatchResult
		for br := range c.Results() {
			got = append(got, br)
		}
		streamed <- got
	}()
	for i := range jobs {
		if err := c.Submit(jobs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	report := c.Wait()
	got := <-streamed
	if len(got) != n {
		t.Fatalf("streamed %d results, want %d", len(got), n)
	}
	seen := map[int]bool{}
	for _, br := range got {
		if seen[br.Index] {
			t.Fatalf("job %d streamed twice", br.Index)
		}
		seen[br.Index] = true
		if br.Err != nil {
			t.Fatalf("job %d: %v", br.Index, br.Err)
		}
		if want := report.Jobs[br.Index].Report; !reflect.DeepEqual(br.Report, want) {
			t.Errorf("job %d: streamed %+v, report %+v", br.Index, br.Report, want)
		}
	}
	if report.Sched.FuelReallocated == 0 {
		t.Errorf("the fuel ledger moved no fuel: %+v", report.Sched)
	}
}

// TestCampaignSubmitAfterWait: Submit after Wait fails with an error in
// both the static and the adaptive batch, and leaves the report alone.
func TestCampaignSubmitAfterWait(t *testing.T) {
	_, jobs := batchContracts(t, 2)
	for _, adaptive := range []bool{false, true} {
		t.Run(fmt.Sprintf("adaptive=%v", adaptive), func(t *testing.T) {
			cfg := DefaultBatchConfig()
			cfg.Iterations = 10
			cfg.Workers = 2
			cfg.Adaptive = adaptive
			c, err := NewCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(jobs[0]); err != nil {
				t.Fatal(err)
			}
			if report := c.Wait(); len(report.Jobs) != 1 || report.Completed != 1 {
				t.Fatalf("jobs=%d completed=%d, want 1/1", len(report.Jobs), report.Completed)
			}
			if err := c.Submit(jobs[1]); err == nil {
				t.Fatal("Submit after Wait succeeded")
			}
			if report := c.Wait(); len(report.Jobs) != 1 {
				t.Fatalf("a rejected Submit changed the report: %d jobs", len(report.Jobs))
			}
		})
	}
}

// classByName maps a Finding's class name back to its contractgen class.
func classByName(t *testing.T, name string) contractgen.Class {
	t.Helper()
	for _, c := range contractgen.Classes {
		if c.String() == name {
			return c
		}
	}
	t.Fatalf("unknown class %q", name)
	return 0
}

// TestCampaignConcurrentSubmit: producers submitting to one Campaign from
// several goroutines each take an index of their own, so Wait reports every
// contract exactly once, at the index it was given.
func TestCampaignConcurrentSubmit(t *testing.T) {
	const producers = 8
	_, jobs := batchContracts(t, 4*producers)
	cfg := DefaultBatchConfig()
	cfg.Iterations = 2
	cfg.Workers = 2
	c, err := NewCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(jobs); i += producers {
				if err := c.Submit(jobs[i]); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	report := c.Wait()
	if len(report.Jobs) != len(jobs) || report.Completed != len(jobs) {
		t.Fatalf("jobs=%d completed=%d, want %d/%d", len(report.Jobs), report.Completed, len(jobs), len(jobs))
	}
	seen := map[string]bool{}
	for i, br := range report.Jobs {
		if br.Index != i || br.Report == nil {
			t.Errorf("slot %d holds index %d (report %v)", i, br.Index, br.Report != nil)
		}
		seen[br.Name] = true
	}
	if len(seen) != len(jobs) {
		t.Errorf("%d distinct contracts reported, want %d", len(seen), len(jobs))
	}
}
