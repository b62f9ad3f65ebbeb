package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
)

// testJobs builds n mixed-class contracts and wraps them as engine jobs
// with the given per-campaign budget. Seeds are left zero so the engine
// derives them (BaseSeed + ID).
func testJobs(tb testing.TB, n, iterations int, seed int64) []Job {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		class := contractgen.Classes[i%len(contractgen.Classes)]
		spec := contractgen.RandomSpec(class, i%2 == 0, rng)
		c, err := contractgen.Generate(spec)
		if err != nil {
			tb.Fatalf("generate contract %d: %v", i, err)
		}
		jobs[i] = Job{
			Name:   fmt.Sprintf("contract-%d", i),
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{Iterations: iterations, SolverConflicts: 50_000},
		}
	}
	return jobs
}

func TestRunBasic(t *testing.T) {
	jobs := testJobs(t, 10, 40, 7)
	rep, err := Run(context.Background(), jobs, Config{Workers: 4, BaseSeed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != len(jobs) || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", rep.Completed, rep.Failed, len(jobs))
	}
	for i, jr := range rep.Results {
		if jr.Job.ID != i {
			t.Fatalf("result %d holds job %d: Run must return results in job order", i, jr.Job.ID)
		}
		if jr.Result == nil {
			t.Fatalf("job %d has no result", i)
		}
		if jr.Result.Iterations != 40 {
			t.Fatalf("job %d ran %d iterations, want 40", i, jr.Result.Iterations)
		}
	}
	// Half the contracts are generated vulnerable; the campaign must flag a
	// good share of them.
	if rep.Flagged == 0 {
		t.Fatal("campaign flagged nothing on a half-vulnerable batch")
	}
	if rep.SolverStats.Queries == 0 {
		t.Fatal("no solver activity aggregated")
	}
	if rep.JobsPerSecond <= 0 {
		t.Fatalf("throughput %v not positive", rep.JobsPerSecond)
	}
	if got := len(rep.PerClass); got == 0 {
		t.Fatal("no per-class counts")
	}
}

func TestEngineStreaming(t *testing.T) {
	// Bounded queue of 1 with 2 workers: submission interleaves with
	// completion, results stream in completion order and close after Close.
	jobs := testJobs(t, 6, 20, 11)
	e, err := Start(context.Background(), Config{Workers: 2, QueueDepth: 1, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := range jobs {
			jobs[i].ID = i
			if err := e.Submit(jobs[i]); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		e.Close()
	}()
	seen := map[int]bool{}
	for jr := range e.Results() {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", jr.Job.ID, jr.Err)
		}
		if seen[jr.Job.ID] {
			t.Fatalf("job %d delivered twice", jr.Job.ID)
		}
		seen[jr.Job.ID] = true
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(seen), len(jobs))
	}
}

func TestSubmitAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := Start(ctx, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	jobs := testJobs(t, 1, 5, 3)
	if err := e.Submit(jobs[0]); err == nil {
		t.Fatal("Submit succeeded after context cancellation")
	}
	e.Close()
	for range e.Results() {
	}
}

// TestSubmitAfterClose: Submit after Close fails with an error instead of
// sending on the closed queue.
func TestSubmitAfterClose(t *testing.T) {
	e, err := Start(context.Background(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Submit(testJobs(t, 1, 5, 3)[0]); err == nil {
		t.Fatal("Submit succeeded after Close")
	}
	for range e.Results() {
	}
}

// TestCloseInterruptsBlockedSubmit: Close returns while a Submit is
// blocked on a full queue whose workers wait for an unread Results; the
// blocked Submit fails, and every accepted job is still delivered.
func TestCloseInterruptsBlockedSubmit(t *testing.T) {
	e, err := Start(context.Background(), Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, 8, 5, 3)
	accepted := make(chan int)
	go func() {
		n := 0
		for i := range jobs {
			jobs[i].ID = i
			if e.Submit(jobs[i]) == nil {
				n++
			}
		}
		accepted <- n
	}()
	for len(e.results) < cap(e.results) || len(e.jobs) < cap(e.jobs) {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close blocked behind a Submit")
	}
	delivered := 0
	for range e.Results() {
		delivered++
	}
	if n := <-accepted; n != delivered || n == len(jobs) {
		t.Fatalf("accepted %d of %d jobs, delivered %d", n, len(jobs), delivered)
	}
}

func TestEachPanicIsolation(t *testing.T) {
	err := Each(context.Background(), 8, Config{Workers: 4}, func(_ context.Context, i int) error {
		if i == 3 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic not preserved: %+v", pe)
	}
}

func TestEachFirstErrorInIndexOrder(t *testing.T) {
	err := Each(context.Background(), 10, Config{Workers: 5}, func(_ context.Context, i int) error {
		if i >= 4 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 4 failed" {
		t.Fatalf("want first error in index order (item 4), got %v", err)
	}
}
