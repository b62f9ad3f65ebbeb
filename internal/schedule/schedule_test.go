package schedule

import (
	"reflect"
	"testing"
)

// A planner over equal-energy arms degrades to plain round-robin — the
// Adaptive=off behaviour the digest gates rely on.
func TestNextEqualEnergyIsRoundRobin(t *testing.T) {
	p := NewPlanner()
	for i := 0; i < 4; i++ {
		p.AddArm(i, uint64(i), 0, BaseEnergy)
	}
	for round := 0; round < 3; round++ {
		for want := 0; want < 4; want++ {
			if got := p.Next(); got != want {
				t.Fatalf("round %d: Next() = %d, want %d", round, got, want)
			}
		}
	}
}

// A boosted arm fires proportionally more often, but the floor keeps every
// arm cycling — no payload kind is ever starved.
func TestNextWeightsFollowEnergy(t *testing.T) {
	p := NewPlanner()
	hot := p.AddArm(0, 1, 0, 4*BaseEnergy)
	cold := p.AddArm(1, 2, 0, BaseEnergy)
	fired := map[int]int{}
	for i := 0; i < 50; i++ {
		fired[p.Next()]++
	}
	if fired[hot] != 40 || fired[cold] != 10 {
		t.Fatalf("fired = %v, want 4:1 split (40/10)", fired)
	}
}

// Replaying a fixed coverage trace yields the identical arm sequence and
// energies — the determinism the 1/4/8-worker gates depend on.
func TestPlannerDeterministicTrace(t *testing.T) {
	trace := []bool{true, false, false, true, false, false, false, false, false, false, true}
	run := func() ([]int, []int, Counters) {
		p := NewPlanner()
		p.AddArm(0, 1, 0, 0)
		p.AddArm(1, 2, 0, 0)
		p.AddArm(2, 3, 0, 0)
		var picks, energies []int
		for _, gained := range trace {
			i := p.Next()
			p.Observe(i, gained)
			picks = append(picks, i)
			energies = append(energies, p.Energy(i))
		}
		return picks, energies, p.Counters()
	}
	p1, e1, c1 := run()
	p2, e2, c2 := run()
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(e1, e2) || c1 != c2 {
		t.Fatalf("replay diverged: picks %v vs %v, energies %v vs %v, counters %+v vs %+v",
			p1, p2, e1, e2, c1, c2)
	}
}

func TestObserveBoostAndClamp(t *testing.T) {
	p := NewPlanner()
	i := p.AddArm(0, 1, 0, 0)
	if p.Energy(i) != BaseEnergy {
		t.Fatalf("initial energy = %d, want %d", p.Energy(i), BaseEnergy)
	}
	for n := 0; n < 10; n++ {
		p.Observe(i, true)
	}
	if p.Energy(i) != MaxEnergy {
		t.Fatalf("energy after boosts = %d, want clamp at %d", p.Energy(i), MaxEnergy)
	}
	// 8→16→32→64: three real updates, further boosts are no-ops at the cap.
	if got := p.Counters().EnergyUpdates; got != 3 {
		t.Fatalf("EnergyUpdates = %d, want 3", got)
	}
}

func TestObserveDecayAfterDryStreak(t *testing.T) {
	p := NewPlanner()
	i := p.AddArm(0, 1, 0, 32)
	for n := 0; n < DecayAfter-1; n++ {
		p.Observe(i, false)
	}
	if p.Energy(i) != 32 {
		t.Fatalf("energy decayed before the streak completed: %d", p.Energy(i))
	}
	p.Observe(i, false)
	if p.Energy(i) != 16 {
		t.Fatalf("energy after one streak = %d, want 16", p.Energy(i))
	}
	// A hit resets the streak.
	for n := 0; n < DecayAfter-1; n++ {
		p.Observe(i, false)
	}
	p.Observe(i, true)
	p.Observe(i, false)
	if p.Energy(i) != 32 {
		t.Fatalf("energy after hit = %d, want boost back to 32", p.Energy(i))
	}
	// Decay never crosses the floor.
	for n := 0; n < 20*DecayAfter; n++ {
		p.Observe(i, false)
	}
	if p.Energy(i) != MinEnergy {
		t.Fatalf("energy floor = %d, want %d", p.Energy(i), MinEnergy)
	}
}

// Composite arms registered mid-run join the rotation deterministically at
// the next Next call.
func TestAddArmMidRun(t *testing.T) {
	p := NewPlanner()
	p.AddArm(0, 1, 0, BaseEnergy)
	p.AddArm(1, 2, 0, BaseEnergy)
	_ = p.Next()
	_ = p.Next()
	j := p.AddArm(2, 2, 7, BaseEnergy)
	if !p.HasArm(2, 2, 7) || p.HasArm(2, 2, 8) {
		t.Fatal("HasArm mismatch after mid-run AddArm")
	}
	seen := map[int]bool{}
	for n := 0; n < 6; n++ {
		seen[p.Next()] = true
	}
	if !seen[j] {
		t.Fatalf("new arm %d never fired in two rounds: %v", j, seen)
	}
	kind, action, writer := p.Arm(j)
	if kind != 2 || action != 2 || writer != 7 {
		t.Fatalf("Arm(%d) = (%d,%d,%d), want (2,2,7)", j, kind, action, writer)
	}
}

func TestReallocatePoolsAndRanks(t *testing.T) {
	phases := []JobPhase{
		{ID: 0, Executed: true, Saturated: true, FuelUnspent: 90},
		{ID: 1, Executed: true, Coverage: 10, Iterations: 100, MaxGrant: 100},
		{ID: 2, Executed: true, Coverage: 30, Iterations: 100, MaxGrant: 100},
		{ID: 3, Executed: false, MaxGrant: 100}, // skipped job: no fuel
		{ID: 4, Executed: true, Saturated: true, FuelUnspent: 10},
	}
	grants, stats := Reallocate(phases)
	if stats.Returned != 100 || stats.Saturated != 2 {
		t.Fatalf("stats = %+v, want Returned=100 Saturated=2", stats)
	}
	if stats.Reallocated != 100 || stats.Recipients != 2 {
		t.Fatalf("stats = %+v, want Reallocated=100 Recipients=2", stats)
	}
	if !reflect.DeepEqual(grants, map[int]int{1: 50, 2: 50}) {
		t.Fatalf("grants = %v, want even 50/50 split", grants)
	}
}

func TestReallocateRemainderToHighestRank(t *testing.T) {
	phases := []JobPhase{
		{ID: 0, Executed: true, Saturated: true, FuelUnspent: 101},
		// The higher coverage rate ranks first (3/100 > 1/50).
		{ID: 1, Executed: true, Coverage: 1, Iterations: 50, MaxGrant: 1000},
		{ID: 2, Executed: true, Coverage: 3, Iterations: 100, MaxGrant: 1000},
	}
	grants, _ := Reallocate(phases)
	if !reflect.DeepEqual(grants, map[int]int{1: 50, 2: 51}) {
		t.Fatalf("grants = %v, want remainder on the higher-rate job 2", grants)
	}
}

func TestReallocateCapsCascade(t *testing.T) {
	phases := []JobPhase{
		{ID: 0, Executed: true, Saturated: true, FuelUnspent: 100},
		{ID: 1, Executed: true, MaxGrant: 10},
		{ID: 2, Executed: true, MaxGrant: 60},
	}
	grants, stats := Reallocate(phases)
	// Job 1 absorbs its cap; the overflow cascades to job 2 up to its cap;
	// the rest goes undistributed.
	if !reflect.DeepEqual(grants, map[int]int{1: 10, 2: 60}) {
		t.Fatalf("grants = %v, want caps honoured (10/60)", grants)
	}
	if stats.Reallocated != 70 || stats.Returned != 100 {
		t.Fatalf("stats = %+v, want Reallocated=70 of Returned=100", stats)
	}
}

func TestReallocateNoDonorsOrNoRecipients(t *testing.T) {
	if g, s := Reallocate([]JobPhase{{ID: 1, Executed: true, MaxGrant: 50}}); g != nil || s.Returned != 0 {
		t.Fatalf("no donors: grants=%v stats=%+v", g, s)
	}
	if g, s := Reallocate([]JobPhase{{ID: 0, Executed: true, Saturated: true, FuelUnspent: 40}}); g != nil || s.Returned != 40 || s.Reallocated != 0 {
		t.Fatalf("no recipients: grants=%v stats=%+v", g, s)
	}
}

// Input order never affects the grant map — the campaign may collect phase
// summaries in completion order.
func TestReallocateOrderInvariant(t *testing.T) {
	phases := []JobPhase{
		{ID: 3, Executed: true, Coverage: 2, Iterations: 40, MaxGrant: 30},
		{ID: 0, Executed: true, Saturated: true, FuelUnspent: 77},
		{ID: 2, Executed: true, Coverage: 2, Iterations: 40, MaxGrant: 30},
		{ID: 1, Executed: true, Coverage: 0, Iterations: 40, MaxGrant: 30},
	}
	want, wantStats := Reallocate(phases)
	for shift := 1; shift < len(phases); shift++ {
		rot := append(append([]JobPhase{}, phases[shift:]...), phases[:shift]...)
		got, gotStats := Reallocate(rot)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("shift %d: grants %v (stats %+v), want %v (stats %+v)", shift, got, gotStats, want, wantStats)
		}
	}
}

func TestCountersAddAndZero(t *testing.T) {
	var c Counters
	if !c.Zero() {
		t.Fatal("fresh counters not zero")
	}
	c.Add(Counters{EnergyUpdates: 1, CompositeFired: 2, SaturationSkips: 3, FuelReturned: 4, FuelReallocated: 5, SaturatedJobs: 6})
	c.Add(Counters{EnergyUpdates: 1})
	want := Counters{EnergyUpdates: 2, CompositeFired: 2, SaturationSkips: 3, FuelReturned: 4, FuelReallocated: 5, SaturatedJobs: 6}
	if c != want {
		t.Fatalf("Add = %+v, want %+v", c, want)
	}
	if c.Zero() {
		t.Fatal("populated counters reported zero")
	}
}

// TestReallocateSecondWind: with every executed job saturated there is no
// still-progressing recipient, and the pool regrants to the saturated jobs
// themselves (same ranking) instead of evaporating.
func TestReallocateSecondWind(t *testing.T) {
	phases := []JobPhase{
		{ID: 0, Executed: true, Saturated: true, FuelUnspent: 60, Coverage: 5, Iterations: 40, MaxGrant: 100},
		{ID: 1, Executed: true, Saturated: true, FuelUnspent: 40, Coverage: 1, Iterations: 40, MaxGrant: 100},
		{ID: 2, Executed: false, MaxGrant: 100}, // replayed/skipped: still no fuel
	}
	grants, stats := Reallocate(phases)
	if !reflect.DeepEqual(grants, map[int]int{0: 50, 1: 50}) {
		t.Fatalf("grants = %v, want the 100-unit pool split across the saturated donors", grants)
	}
	if stats.Returned != 100 || stats.Reallocated != 100 || stats.Recipients != 2 || stats.Saturated != 2 {
		t.Fatalf("stats = %+v, want Returned=Reallocated=100 Recipients=Saturated=2", stats)
	}
	// A single still-progressing job suppresses the second wind: the pool
	// goes to it alone.
	phases[2] = JobPhase{ID: 2, Executed: true, Coverage: 1, Iterations: 10, MaxGrant: 100}
	grants, stats = Reallocate(phases)
	if !reflect.DeepEqual(grants, map[int]int{2: 100}) {
		t.Fatalf("grants = %v, want the progressing job to take the whole pool", grants)
	}
	if stats.Recipients != 1 {
		t.Fatalf("stats = %+v, want Recipients=1", stats)
	}
}
