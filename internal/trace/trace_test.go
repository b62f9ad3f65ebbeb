package trace

import (
	"bytes"
	"reflect"
	"testing"

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
	taken := c.TakeTraces()
	if len(taken) != 2 || len(c.Traces()) != 0 {
		t.Error("TakeTraces did not drain")
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
