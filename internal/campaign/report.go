package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/memo"
	"repro/internal/schedule"
	"repro/internal/symbolic"
)

// Report aggregates a batch campaign.
type Report struct {
	// Results holds one entry per job, in job-ID order when produced by
	// Run (completion order is not observable here — determinism).
	Results []JobResult
	// Completed and Failed partition the jobs.
	Completed int
	Failed    int
	// PerFailure counts failed jobs by failure class — the taxonomy makes
	// "N failed" answerable: how many timed out, how many panicked, how
	// many starved the solver.
	PerFailure map[failure.Class]int
	// Degraded counts completed jobs whose accepted result ran with
	// degraded budgets; Retried counts jobs that needed more than one
	// attempt (a retried job may still have failed terminally).
	Degraded int
	Retried  int
	// Replayed counts results restored from a resume journal.
	Replayed int
	// Flagged counts completed jobs with at least one vulnerable class.
	Flagged int
	// PerClass counts completed jobs flagged per vulnerability class.
	PerClass map[contractgen.Class]int
	// Iterations and AdaptiveSeeds sum across completed jobs.
	Iterations    int
	AdaptiveSeeds int
	// SolverStats merges every job's solver statistics.
	SolverStats symbolic.SolverStats
	// Memo holds the campaign's cache-counter delta when memoization was
	// active (nil when off). Counters are reporting-only and excluded
	// from both digests: concurrent workers racing on one key make exact
	// hit counts scheduling-dependent (see internal/memo).
	Memo *memo.Stats
	// Sched sums the adaptive scheduler's counters across completed jobs,
	// plus the campaign fuel-ledger totals (added by Engine.Report, which
	// Run calls). Zero when Adaptive is off.
	Sched schedule.Counters
	// Wall is the batch wall-clock time; JobsPerSecond the throughput.
	Wall          time.Duration
	JobsPerSecond float64
}

// Aggregate folds job results into a Report. The slice is retained.
func Aggregate(results []JobResult, wall time.Duration) *Report {
	r := &Report{
		Results:    results,
		PerClass:   map[contractgen.Class]int{},
		PerFailure: map[failure.Class]int{},
		Wall:       wall,
	}
	for _, jr := range results {
		if jr.Attempts > 1 {
			r.Retried++
		}
		if jr.Replayed {
			r.Replayed++
		}
		if jr.Err != nil {
			r.Failed++
			class := jr.FailureClass
			if class == failure.None {
				class = failure.ClassOf(jr.Err)
			}
			r.PerFailure[class]++
			continue
		}
		r.Completed++
		if jr.Degraded() {
			r.Degraded++
		}
		res := jr.Result
		r.Iterations += res.Iterations
		r.AdaptiveSeeds += res.AdaptiveSeeds
		r.Sched.Add(res.Sched)
		r.SolverStats.Queries += res.SolverStats.Queries
		r.SolverStats.FastPathHits += res.SolverStats.FastPathHits
		r.SolverStats.SATCalls += res.SolverStats.SATCalls
		r.SolverStats.SATConflicts += res.SolverStats.SATConflicts
		r.SolverStats.Unknowns += res.SolverStats.Unknowns
		r.SolverStats.Propagations += res.SolverStats.Propagations
		flagged := false
		for _, class := range contractgen.Classes {
			if res.Report.Vulnerable[class] {
				r.PerClass[class]++
				flagged = true
			}
		}
		if flagged {
			r.Flagged++
		}
	}
	if secs := wall.Seconds(); secs > 0 {
		r.JobsPerSecond = float64(len(results)) / secs
	}
	return r
}

// FindingsDigest renders the campaign's findings as a canonical sorted
// string: one line per job (name, per-class verdicts, error if any), sorted
// by job ID. Two campaigns over the same jobs found the same vulnerabilities
// iff their digests are byte-identical. Execution counters are excluded;
// see StateDigest.
func (r *Report) FindingsDigest() string {
	return r.digest(false)
}

// StateDigest is FindingsDigest plus the per-job execution counters
// (coverage, adaptive seeds). It is the stronger equivalence the
// worker-count determinism tests compare: identical state digests mean the
// runs were behaviourally identical, not merely same-verdict.
func (r *Report) StateDigest() string {
	return r.digest(true)
}

func (r *Report) digest(withState bool) string {
	lines := make([]string, 0, len(r.Results))
	for _, jr := range r.Results {
		var sb strings.Builder
		fmt.Fprintf(&sb, "job=%d name=%q", jr.Job.ID, jr.Job.Name)
		if jr.Err != nil {
			fmt.Fprintf(&sb, " err=%v", jr.Err)
		} else {
			for _, class := range contractgen.Classes {
				fmt.Fprintf(&sb, " %s=%v", class, jr.Result.Report.Vulnerable[class])
			}
			if withState {
				fmt.Fprintf(&sb, " coverage=%d adaptive=%d", jr.Result.Coverage, jr.Result.AdaptiveSeeds)
				// The adaptive scheduler's per-job state, appended only when
				// it did something, so Adaptive=off digests are unchanged.
				// Iterations join here because saturation and fuel grants
				// make them vary per job under the adaptive schedule.
				if !jr.Result.Sched.Zero() || jr.Result.Saturated {
					s := jr.Result.Sched
					fmt.Fprintf(&sb, " sched=[iters=%d energy=%d composite=%d skips=%d sat=%v]",
						jr.Result.Iterations, s.EnergyUpdates, s.CompositeFired, s.SaturationSkips, jr.Result.Saturated)
				}
			}
		}
		// Degradation is part of the finding's provenance: a verdict from a
		// concrete-only rerun is not the same claim as a full-budget one.
		// Appended only when set, so undegraded digests are unchanged.
		if jr.DegradedMode != "" {
			fmt.Fprintf(&sb, " degraded=%s", jr.DegradedMode)
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// String summarizes the report (throughput line + per-class counts).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign: %d jobs (%d completed, %d failed) in %.1fs (%.1f jobs/s), %d flagged\n",
		len(r.Results), r.Completed, r.Failed, r.Wall.Seconds(), r.JobsPerSecond, r.Flagged)
	if r.Retried > 0 || r.Degraded > 0 || r.Replayed > 0 {
		fmt.Fprintf(&sb, "  resilience: %d retried, %d degraded, %d replayed from journal\n",
			r.Retried, r.Degraded, r.Replayed)
	}
	if r.Memo != nil {
		fmt.Fprintf(&sb, "  memo: %s\n", r.Memo)
	}
	if !r.Sched.Zero() {
		fmt.Fprintf(&sb, "  adaptive: %d energy updates, %d composite arms, %d saturated jobs, %d/%d fuel reallocated\n",
			r.Sched.EnergyUpdates, r.Sched.CompositeFired, r.Sched.SaturatedJobs, r.Sched.FuelReallocated, r.Sched.FuelReturned)
	}
	for _, class := range failure.Classes {
		if n := r.PerFailure[class]; n > 0 {
			fmt.Fprintf(&sb, "  failures[%s] %d\n", class, n)
		}
	}
	if n := r.PerFailure[failure.Unclassified]; n > 0 {
		fmt.Fprintf(&sb, "  failures[%s] %d\n", failure.Unclassified, n)
	}
	for _, class := range contractgen.Classes {
		if n := r.PerClass[class]; n > 0 {
			fmt.Fprintf(&sb, "  %-14s %d\n", class, n)
		}
	}
	return sb.String()
}
