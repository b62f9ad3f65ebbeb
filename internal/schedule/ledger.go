package schedule

import "sort"

// JobPhase is one job's phase-1 summary as reported to the campaign fuel
// ledger: how much of its budget it left unspent (saturated jobs stop
// early), and the signals the ledger ranks recipients by. Everything here
// is derived from (seed, observed coverage) — never from timing — so the
// reallocation is a pure function and identical at any worker count.
type JobPhase struct {
	// ID is the job's campaign ID (orders ties).
	ID int
	// Executed distinguishes jobs that actually fuzzed from replayed /
	// failed jobs, which neither donate nor receive fuel.
	Executed bool
	// Saturated marks a job that stopped at its saturation window.
	Saturated bool
	// FuelUnspent is the iteration budget the job handed back.
	FuelUnspent int
	// Coverage and Iterations give the observed coverage rate
	// (Coverage/Iterations, compared by integer cross-multiplication).
	Coverage   int
	Iterations int
	// MaxGrant caps how much extra fuel this job can absorb in phase 2.
	MaxGrant int
}

// LedgerStats summarises one Reallocate decision.
type LedgerStats struct {
	// Returned is the fuel pool donated by saturated jobs.
	Returned int
	// Reallocated is the portion granted out (≤ Returned; the rest went
	// undistributed because every recipient hit its MaxGrant).
	Reallocated int
	// Saturated counts donor jobs.
	Saturated int
	// Recipients counts jobs granted fuel.
	Recipients int
}

// rateLess reports whether a's coverage rate is strictly below b's,
// by integer cross-multiplication (no floats in scheduling decisions).
// Jobs with zero iterations rank below any job with a rate.
func rateLess(a, b JobPhase) bool {
	if a.Iterations == 0 || b.Iterations == 0 {
		return a.Iterations == 0 && b.Iterations != 0 && b.Coverage > 0
	}
	return a.Coverage*b.Iterations < b.Coverage*a.Iterations
}

// Reallocate is the campaign fuel ledger: saturated jobs pool their unspent
// fuel, and still-progressing executed jobs receive it ordered by coverage
// rate (descending), then ID (ascending).
// When every executed job saturated, the pool second-winds back to the
// saturated jobs under the same ranking instead of evaporating.
// The pool splits evenly across recipients with the remainder going to the
// highest-ranked, each grant capped at the job's MaxGrant; capped leftovers
// cascade down the ranking. The result maps job ID → extra iterations.
//
// ISSUE 10 names memo hit rate as a ranking signal, but memo counters are
// scheduling-dependent (internal/memo documents that hit totals vary with
// job interleaving), so using them would break 1/4/8-worker reproducibility.
// Coverage rate — a pure function of (seed, observed coverage) — takes its
// place; DESIGN.md records the deviation.
func Reallocate(phases []JobPhase) (map[int]int, LedgerStats) {
	var stats LedgerStats
	var recipients, saturated []JobPhase
	for _, p := range phases {
		if !p.Executed {
			continue
		}
		if p.Saturated {
			stats.Saturated++
			stats.Returned += p.FuelUnspent
			if p.MaxGrant > 0 {
				saturated = append(saturated, p)
			}
			continue
		}
		if p.MaxGrant > 0 {
			recipients = append(recipients, p)
		}
	}
	if len(recipients) == 0 {
		// Second wind: with every executed job saturated the pool has no
		// still-progressing recipient, and without this rule it would
		// evaporate. Regrant it to the saturated jobs themselves under the
		// same ranking — ContinuePhase opens a fresh saturation window, so
		// a grant is a deliberate second chance, not a busy-loop: a job
		// that re-saturates just returns the remainder at its end.
		recipients = saturated
	}
	if stats.Returned == 0 || len(recipients) == 0 {
		return nil, stats
	}
	sort.Slice(recipients, func(i, j int) bool {
		a, b := recipients[i], recipients[j]
		if rateLess(a, b) != rateLess(b, a) {
			return rateLess(b, a)
		}
		return a.ID < b.ID
	})
	grants := make(map[int]int, len(recipients))
	remaining := stats.Returned
	// Even split with remainder to the highest-ranked; anything a capped
	// recipient cannot absorb is re-split over the rest in further rounds.
	for remaining > 0 {
		open := 0
		for _, r := range recipients {
			if grants[r.ID] < r.MaxGrant {
				open++
			}
		}
		if open == 0 {
			break
		}
		share, rem := remaining/open, remaining%open
		if share == 0 && rem > 0 {
			share, rem = 1, 0
		}
		progressed := false
		for _, r := range recipients {
			if remaining == 0 {
				break
			}
			head := grants[r.ID]
			if head >= r.MaxGrant {
				continue
			}
			give := share
			if rem > 0 {
				give++
				rem--
			}
			if give > r.MaxGrant-head {
				give = r.MaxGrant - head
			}
			if give > remaining {
				give = remaining
			}
			if give > 0 {
				grants[r.ID] = head + give
				remaining -= give
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	for _, g := range grants {
		stats.Reallocated += g
	}
	stats.Recipients = len(grants)
	return grants, stats
}
