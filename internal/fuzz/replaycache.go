package fuzz

import (
	"slices"
	"sync"

	"repro/internal/eos"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// maxReplayCacheEvents bounds the trace events one artifact's replay cache
// keeps alive: 24 bytes per event, so 1.5 MiB. An insert that would pass it
// empties the cache first, so the later jobs of a busy artifact still cache
// their new traces.
const maxReplayCacheEvents = 1 << 16

// replayCache remembers, for one artifact, what Symback made of each
// distinct trace, so the jobs fuzzing the artifact run symexec.Run once per
// distinct (action, event sequence, parameter layout, OpaqueInputs). The
// outcome is exact to reuse, within a job and across jobs, because Run is a
// pure function of the module, the trace's events, the parameter types
// with string lengths, and the options: the module is the artifact's, the
// _self global is the constant victim name, OpaqueInputs is in the key, and
// concrete parameter values reach Run only through the trace's HookParam
// events. Entries are never changed once inserted, so a caller may read
// the entry lookup returns after the lock is released.
type replayCache struct {
	mu sync.Mutex
	//wasai:localcache artifact-local: one per fuzz.Artifact, which lives
	// in a campaign worker's table, or with one Fuzzer until Finish when
	// New built it; bounded by limit. It maps a trace fingerprint to the
	// entries sharing it; a hit needs element-wise equality, so a
	// collision costs a replay.
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
	opaque  bool // the replay's Options.OpaqueInputs
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
// layout and the OpaqueInputs option, or nil.
func (c *replayCache) lookup(fp uint64, tr *trace.Trace, params []symexec.Param, opaque bool) *replayEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	bucket := c.buckets[fp]
	for i := range bucket {
		if bucket[i].matches(tr, params, opaque) {
			return &bucket[i]
		}
	}
	return nil
}

func (e *replayEntry) matches(tr *trace.Trace, params []symexec.Param, opaque bool) bool {
	if e.action != tr.Action || e.opaque != opaque || len(e.layout) != len(params) {
		return false
	}
	for i, p := range params {
		if e.layout[i] != shapeOf(p) {
			return false
		}
	}
	return slices.Equal(e.events, tr.Events)
}

// insert records a replay's outcome. When that would take the cache past
// its limit it empties the cache first; a trace longer than the limit
// alone is not recorded.
func (c *replayCache) insert(fp uint64, tr *trace.Trace, params []symexec.Param, opaque bool, err error, queries []symexec.FlipQuery) {
	n := len(tr.Events)
	if n > c.limit {
		return
	}
	e := replayEntry{
		action: tr.Action,
		events: slices.Clone(tr.Events),
		layout: make([]paramShape, len(params)),
		opaque: opaque,
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.buckets == nil || c.retained+n > c.limit {
		// Entries handed out before stay valid: the old map and its
		// buckets are only dropped, never written.
		c.buckets, c.retained = map[uint64][]replayEntry{}, 0
	}
	c.retained += n
	c.buckets[fp] = append(c.buckets[fp], e)
}
