package fuzz

import (
	"slices"

	"repro/internal/eos"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// maxReplayCacheEvents bounds the trace events one job's replay cache keeps
// alive: 24 bytes per event, so 1.5 MiB. Across about 1,000
// wild-population jobs the largest retained about 5,000. A full cache stops
// inserting; a trace seen for the first time after that replays as if
// there were no cache.
const maxReplayCacheEvents = 1 << 16

// replayCache remembers, for one job, what Symback made of each distinct
// trace, so feedback runs symexec.Run once per distinct (action, event
// sequence, parameter layout). The outcome is exact to reuse because Run is
// a pure function of the module, the trace's events, the parameter types
// with string lengths, and the options; the module and the options are
// fixed per job, and concrete parameter values reach Run only through the
// trace's HookParam events.
type replayCache struct {
	//wasai:localcache job-local: one per Fuzzer, dropped in Finish and
	// bounded by limit. It maps a trace fingerprint to the entries sharing
	// it; a hit needs element-wise equality, so a collision costs a replay.
	buckets map[uint64][]replayEntry
	// retained counts the events the entries keep alive; limit caps it.
	retained, limit int
}

// replayEntry is the outcome of one replay: its error, or its flip targets
// in FlipQueries order.
type replayEntry struct {
	action eos.Name
	// events is the entry's own copy of the replayed trace's events: the
	// fuzzer hands a trace's buffer back to the collector once it has
	// observed the trace.
	events  []trace.Event
	layout  []paramShape
	err     error
	targets []symexec.BranchTarget
}

// paramShape is the part of a parameter symexec.Run reads: its type and,
// for strings, its length.
type paramShape struct {
	typ    string
	strLen int
}

func shapeOf(p symexec.Param) paramShape { return paramShape{typ: p.Type, strLen: len(p.Str)} }

// lookup returns the entry recorded for the trace under the parameter
// layout, or nil.
func (c *replayCache) lookup(fp uint64, tr *trace.Trace, params []symexec.Param) *replayEntry {
	bucket := c.buckets[fp]
	for i := range bucket {
		if bucket[i].matches(tr, params) {
			return &bucket[i]
		}
	}
	return nil
}

func (e *replayEntry) matches(tr *trace.Trace, params []symexec.Param) bool {
	if e.action != tr.Action || len(e.layout) != len(params) {
		return false
	}
	for i, p := range params {
		if e.layout[i] != shapeOf(p) {
			return false
		}
	}
	return slices.Equal(e.events, tr.Events)
}

// insert records a replay's outcome unless that would take the cache past
// its limit.
func (c *replayCache) insert(fp uint64, tr *trace.Trace, params []symexec.Param, err error, queries []symexec.FlipQuery) {
	n := len(tr.Events)
	if c.retained+n > c.limit {
		return
	}
	c.retained += n
	e := replayEntry{
		action: tr.Action,
		events: slices.Clone(tr.Events),
		layout: make([]paramShape, len(params)),
		err:    err,
	}
	for i, p := range params {
		e.layout[i] = shapeOf(p)
	}
	if len(queries) > 0 {
		e.targets = make([]symexec.BranchTarget, len(queries))
		for i, q := range queries {
			e.targets[i] = q.Target
		}
	}
	if c.buckets == nil {
		c.buckets = map[uint64][]replayEntry{}
	}
	c.buckets[fp] = append(c.buckets[fp], e)
}
