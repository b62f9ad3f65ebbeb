package scanner

import (
	"repro/internal/trace"
	"repro/internal/wasm"
)

// CustomDetector is the extension interface of paper §5: new bug detectors
// plug in by (1) observing the traces Engine's payloads produce and
// (2) deciding whether the exploit event occurred. Engine feeds every
// target trace to every registered detector.
type CustomDetector interface {
	// Name labels the detector in reports.
	Name() string
	// Observe inspects one trace of the fuzzing target. The APISets give
	// the import-index view of the host functions. tr, its events
	// included, is valid only during the call: the fuzzer reuses the
	// event buffer for later traces, so a detector that keeps events
	// copies them.
	Observe(tr *trace.Trace, apis APISets)
	// Vulnerable reports the verdict accumulated so far.
	Vulnerable() bool
}

// customs is managed by the Scanner.
func (s *Scanner) AddCustom(d CustomDetector) { s.customs = append(s.customs, d) }

// ObserveCustom feeds traces to the registered custom detectors.
func (s *Scanner) ObserveCustom(traces []trace.Trace) {
	for i := range traces {
		for _, d := range s.customs {
			d.Observe(&traces[i], s.apis)
		}
	}
}

// CustomResults returns the per-detector verdicts.
func (s *Scanner) CustomResults() map[string]bool {
	out := make(map[string]bool, len(s.customs))
	for _, d := range s.customs {
		out[d.Name()] = d.Vulnerable()
	}
	return out
}

// APICallDetector is a ready-made CustomDetector that flags any executed
// call to one of the named host APIs — the shape of the paper's
// BlockinfoDep and Rollback oracles, usable for new API families (e.g.
// current_time as a randomness source) without writing trace-walking code.
type APICallDetector struct {
	// Label is the detector name.
	Label string
	// APIs is the set of import names that constitute the exploit event.
	APIs map[string]bool

	resolved map[uint32]bool
	module   *wasm.Module
	hit      bool
}

// NewAPICallDetector builds a detector for the given import names, resolved
// against the target module.
func NewAPICallDetector(label string, m *wasm.Module, apis ...string) *APICallDetector {
	d := &APICallDetector{Label: label, APIs: map[string]bool{}, resolved: map[uint32]bool{}}
	for _, a := range apis {
		d.APIs[a] = true
	}
	idx := uint32(0)
	for _, imp := range m.Imports {
		if imp.Kind != wasm.ExternalFunc {
			continue
		}
		if d.APIs[imp.Name] {
			d.resolved[idx] = true
		}
		idx++
	}
	return d
}

// Name implements CustomDetector.
func (d *APICallDetector) Name() string { return d.Label }

// Observe implements CustomDetector.
func (d *APICallDetector) Observe(tr *trace.Trace, apis APISets) {
	for _, ev := range tr.Events {
		if ev.Kind == trace.HookCall && d.resolved[uint32(ev.Operand)] {
			d.hit = true
			return
		}
	}
}

// Vulnerable implements CustomDetector.
func (d *APICallDetector) Vulnerable() bool { return d.hit }
