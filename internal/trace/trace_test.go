package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/eos"
	"repro/internal/wasm"
)

func sampleTraces() []Trace {
	return []Trace{
		{
			Contract: eos.MustName("victim"),
			Action:   eos.ActionTransfer,
			Events: []Event{
				{Kind: HookFuncBegin, Func: 30},
				{Kind: HookParam, Func: 30, Operand: 42},
				{Kind: HookCond, Func: 30, PC: 5, Op: wasm.OpBrIf, Operand: 1},
				{Kind: HookMem, Func: 30, PC: 9, Op: wasm.OpI64Load, Operand: 1040},
				{Kind: HookCall, Func: 30, PC: 12, Op: wasm.OpCall, Operand: 3},
				{Kind: HookCallPost, Func: 30, PC: 12, Operand: 7},
				{Kind: HookFuncEnd, Func: 30},
			},
		},
		{
			Contract: eos.MustName("other"),
			Action:   eos.MustName("reveal"),
			Events:   []Event{{Kind: HookBrTable, Func: 8, PC: 2, Operand: 3}},
		},
	}
}

func TestOfflineFileRoundTrip(t *testing.T) {
	traces := sampleTraces()
	var buf bytes.Buffer
	if err := Write(&buf, traces); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(traces, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", traces, back)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("want error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("want error for empty input")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := Write(&buf, sampleTraces()); err != nil {
		t.Fatal(err)
	}
	p := buf.Bytes()
	if _, err := Read(bytes.NewReader(p[:len(p)-5])); err == nil {
		t.Error("want error for truncated file")
	}
}

func TestCollectorFinalize(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: HookInstr, Func: 1})
	c.Emit(Event{Kind: HookInstr, Func: 1, PC: 1})
	c.Finalize(eos.MustName("a"), eos.ActionTransfer)
	c.Emit(Event{Kind: HookInstr, Func: 2})
	c.Finalize(eos.MustName("b"), eos.MustName("reveal"))
	// Empty finalize is a no-op.
	c.Finalize(eos.MustName("c"), eos.ActionTransfer)

	got := c.Traces()
	if len(got) != 2 {
		t.Fatalf("traces = %d, want 2", len(got))
	}
	// Each trace owns an exact-size copy of its events: the next trace,
	// emitted into the collector's reused buffer, must not write into it.
	if got[0].Contract != eos.MustName("a") || len(got[0].Events) != 2 || cap(got[0].Events) != 2 || got[0].Events[0].Func != 1 {
		t.Errorf("first trace: %+v", got[0])
	}
	prior := []Trace{{Contract: eos.MustName("z")}}
	taken := c.AppendTraces(prior)
	if len(taken) != 3 || taken[0].Contract != eos.MustName("z") || taken[1].Contract != eos.MustName("a") ||
		taken[2].Contract != eos.MustName("b") || len(c.Traces()) != 0 {
		t.Errorf("AppendTraces gave %+v and left %d traces, want z, a, b and none", taken, len(c.Traces()))
	}
}

func TestCalledFuncs(t *testing.T) {
	tr := sampleTraces()[0]
	ids := tr.CalledFuncs()
	if len(ids) != 1 || ids[0] != 3 {
		t.Errorf("CalledFuncs = %v", ids)
	}
}

func TestBranches(t *testing.T) {
	tr := Trace{Events: []Event{
		{Kind: HookCond, Func: 1, PC: 5, Operand: 1},
		{Kind: HookCond, Func: 1, PC: 5, Operand: 1}, // duplicate direction
		{Kind: HookCond, Func: 1, PC: 5, Operand: 0}, // other direction
		{Kind: HookBrTable, Func: 1, PC: 9, Operand: 2},
		{Kind: HookMem, Func: 1, PC: 11, Operand: 64}, // not a branch
	}}
	b := tr.Branches()
	if len(b) != 3 {
		t.Errorf("distinct branches = %d, want 3", len(b))
	}
	if _, ok := b[BranchKey{Func: 1, PC: 5, Dir: 1}]; !ok {
		t.Error("taken direction missing")
	}
	if _, ok := b[BranchKey{Func: 1, PC: 5, Dir: 0}]; !ok {
		t.Error("untaken direction missing")
	}
}

func TestHookKindStrings(t *testing.T) {
	kinds := []HookKind{
		HookInstr, HookCond, HookBrTable, HookMem, HookCallPre, HookCall,
		HookCallPost, HookFuncBegin, HookFuncEnd, HookCmp, HookParam,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

// TestFingerprint: equal event sequences share a fingerprint whatever the
// contract and action; a change to any one field of one event moves it.
func TestFingerprint(t *testing.T) {
	tr := sampleTraces()[0]
	same := Trace{Contract: eos.MustName("other"), Action: eos.MustName("reveal"), Events: append([]Event(nil), tr.Events...)}
	if tr.Fingerprint() != same.Fingerprint() {
		t.Error("equal events, different fingerprints")
	}
	edits := map[string]func(*Event){
		"Kind":    func(ev *Event) { ev.Kind = HookCmp },
		"Func":    func(ev *Event) { ev.Func++ },
		"PC":      func(ev *Event) { ev.PC++ },
		"Op":      func(ev *Event) { ev.Op = wasm.OpI64Load },
		"Operand": func(ev *Event) { ev.Operand ^= 1 << 63 },
	}
	for field, edit := range edits {
		for i := range tr.Events {
			changed := Trace{Events: append([]Event(nil), tr.Events...)}
			edit(&changed.Events[i])
			if changed.Events[i] != tr.Events[i] && changed.Fingerprint() == tr.Fingerprint() {
				t.Errorf("changing %s of event %d kept the fingerprint", field, i)
			}
		}
	}
	if (&Trace{Events: tr.Events[:len(tr.Events)-1]}).Fingerprint() == tr.Fingerprint() {
		t.Error("dropping the last event kept the fingerprint")
	}
}

// TestEventSize pins the packed layout: the one-byte Kind and Op lead, so
// an Event is 24 bytes, not 32.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("Event is %d bytes, want 24", got)
	}
}

// TestCollectorRecycleAllocatesNoEventBuffer: once a buffer comes back
// through Recycle, a steady Emit/Finalize/AppendTraces/Recycle cycle into
// a reused trace list allocates nothing: no event buffer, and no list on
// either side of the hand-over.
func TestCollectorRecycleAllocatesNoEventBuffer(t *testing.T) {
	c := NewCollector()
	var list []Trace
	cycle := func() {
		for i := 0; i < 100; i++ {
			c.Emit(Event{Kind: HookCond, Func: 1, PC: i, Operand: uint64(i)})
		}
		c.Finalize(eos.MustName("victim"), eos.ActionTransfer)
		list = c.AppendTraces(list[:0])
		c.Recycle(list[0].Events)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a recycling cycle makes %v allocations, want 0", allocs)
	}
}

// TestUnrecycledTraceIsNeverWritten: a trace nobody hands back keeps its
// whole buffer, spare capacity included, while the collector finalizes and
// recycles shorter and longer traces after it.
func TestUnrecycledTraceIsNeverWritten(t *testing.T) {
	c := NewCollector()
	emit := func(n int, op uint64) {
		for i := 0; i < n; i++ {
			c.Emit(Event{Kind: HookMem, Func: 2, PC: i, Operand: op})
		}
		c.Finalize(eos.MustName("victim"), eos.ActionTransfer)
	}
	emit(40, 1)
	emit(10, 2)
	taken := c.AppendTraces(nil)
	kept := taken[1].Events
	snapshot := slices.Clone(kept[:cap(kept)])
	c.Recycle(taken[0].Events)
	for round, n := range []int{5, 60, 10, 200, 1, 35} {
		emit(n, uint64(100+round))
		for _, tr := range c.AppendTraces(nil) {
			c.Recycle(tr.Events)
		}
	}
	if !slices.Equal(kept[:cap(kept)], snapshot) {
		t.Error("the collector wrote into a buffer nobody recycled")
	}
}

// TestAddBranchesMatchesOracle checks AddBranches, and Branches built on
// it, against the map-per-trace construction it replaced, on random traces
// added to a set that already holds some of their branches.
func TestAddBranchesMatchesOracle(t *testing.T) {
	oracle := func(tr *Trace) map[BranchKey]struct{} {
		out := make(map[BranchKey]struct{})
		for _, ev := range tr.Events {
			switch ev.Kind {
			case HookCond:
				dir := uint8(0)
				if ev.Operand != 0 {
					dir = 1
				}
				out[BranchKey{Func: ev.Func, PC: ev.PC, Dir: dir}] = struct{}{}
			case HookBrTable:
				out[BranchKey{Func: ev.Func, PC: ev.PC, Dir: uint8(ev.Operand % 251)}] = struct{}{}
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(9))
	kinds := []HookKind{HookCond, HookBrTable, HookMem, HookCall, HookCmp}
	for round := 0; round < 200; round++ {
		tr := &Trace{}
		for i, n := 0, rng.Intn(60); i < n; i++ {
			tr.Events = append(tr.Events, Event{
				Kind:    kinds[rng.Intn(len(kinds))],
				Func:    uint32(rng.Intn(3)),
				PC:      rng.Intn(8),
				Operand: []uint64{0, 1, 2, 250, 251, 502, rng.Uint64()}[rng.Intn(7)],
			})
		}
		want := oracle(tr)
		if got := tr.Branches(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Branches %v, oracle %v", round, got, want)
		}
		set := make(map[BranchKey]struct{})
		for bk := range want {
			if rng.Intn(2) == 0 {
				set[bk] = struct{}{}
			}
		}
		fresh := len(want) - len(set)
		if got := tr.AddBranches(set); got != fresh {
			t.Fatalf("round %d: AddBranches reports %d new branches, want %d", round, got, fresh)
		}
		if !reflect.DeepEqual(set, want) {
			t.Fatalf("round %d: AddBranches left %v, want %v", round, set, want)
		}
	}
}
