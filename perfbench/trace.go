package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/fuzz"
	"repro/internal/memo"
	"repro/internal/static"
	"repro/internal/static/absint"
	"repro/internal/symbolic"
	"repro/internal/wal"
	"repro/internal/wasm"
)

// minCoverage is the share of traced wall time the spans below each root
// must account for; a lower share means a stage runs unspanned.
const minCoverage = 0.95

// span is one timed call into a layer. Spans of one contract (or one serve
// job) share a trace ID; a root has parent 0.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return ms(at.Sub(t.t0)) }

// begin opens a span now and returns its ID.
func (t *tracer) begin(trace, parent int, name string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.since(now)})
	return id
}

// end closes span id now and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.since(now)
	return s.End - s.Start
}

// record adds a span measured by the caller and returns its ID.
func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.since(start), End: t.since(end)})
	return id
}

// coverage is the share of root-span time covered by the roots' children:
// one minus the roots' total self time over their total time.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots, children float64
	isRoot := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			isRoot[s.ID] = true
			roots += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if isRoot[s.Parent] {
			children += s.End - s.Start
		}
	}
	if roots == 0 {
		return 0
	}
	return children / roots
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates what the traced pass observes at each layer.
type layers struct {
	decodeMS, staticMS, absintMS, newMS, loopMS, scenariosMS []float64

	decoded, fuzzed                int
	wasmBytes, newAlloc, loopAlloc float64
	iterations, coverage           int
	adaptive, replayErrors         int
	solver                         symbolic.SolverStats
	decided, verdictClasses        int

	memo   memo.Stats
	shares map[string]float64

	// serve only
	submitMS, queueMS, runMS []float64
	wal                      wal.Stats
	storeWrites, storeHits   int64
}

// stages selects the pipeline stages the traced pass calls, mirroring the
// workload's engine configuration.
type stages struct {
	decode       bool // contracts arrive as Wasm bytes + ABI JSON
	staticTriage bool
	verdicts     bool
	iterations   int
	conflicts    int64
	incremental  bool
	fastVM       bool
}

// contractInput is one contract for the traced pass: encoded (when
// stages.decode) or already decoded.
type contractInput struct {
	trace         int // span trace ID
	wasm, abiJSON []byte
	mod           *wasm.Module
	abi           *abi.ABI
	seed          int64
}

func decodeValidate(bin []byte) (*wasm.Module, error) {
	m, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	return m, wasm.Validate(m)
}

func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

const mb = 1 << 20

// traceContract runs one contract through the stages the campaign engine
// would, with one span per layer call under a per-contract root, and
// returns its verdicts.
func traceContract(t *tracer, l *layers, st stages, cache *memo.Cache, c contractInput) (verdicts, error) {
	root := t.begin(c.trace, 0, "contract")
	defer t.end(root)

	mod, contractABI := c.mod, c.abi
	if st.decode {
		s := t.begin(c.trace, root, "wasm.decode")
		var err error
		mod, err = cache.Module(c.wasm, decodeValidate)
		if err == nil {
			contractABI = new(abi.ABI)
			err = json.Unmarshal(c.abiJSON, contractABI)
		}
		l.decodeMS = append(l.decodeMS, t.end(s))
		l.decoded++
		l.wasmBytes += float64(len(c.wasm))
		if err != nil {
			return verdicts{}, err
		}
	}
	if st.staticTriage {
		s := t.begin(c.trace, root, "static.analyze")
		rep, err := cache.Static(mod, static.Analyze)
		l.staticMS = append(l.staticMS, t.end(s))
		if err == nil && rep != nil && !rep.AnyCandidate() {
			return verdicts{}, nil // skipped: provably clean
		}
	}
	if st.verdicts {
		s := t.begin(c.trace, root, "absint.analyze")
		var actions []eos.Name
		for _, a := range contractABI.Actions {
			actions = append(actions, a.Name)
		}
		rep := cache.Verdict(mod, actions, absint.Analyze)
		l.absintMS = append(l.absintMS, t.end(s))
		for _, class := range contractgen.Classes {
			l.verdictClasses++
			if rep.Verdicts[class].Kind != absint.Unknown {
				l.decided++
			}
		}
		if rep.AllNegative() {
			return verdicts{}, nil // skipped: every class proven negative
		}
	}

	ctx := context.Background()
	s := t.begin(c.trace, root, "fuzz.new")
	a0 := allocBytes()
	f, err := fuzz.New(mod, contractABI, fuzz.Config{
		Iterations:      st.iterations,
		SolverConflicts: st.conflicts,
		Seed:            c.seed,
		Memo:            cache.SolverMemo(),
		Incremental:     st.incremental,
		FastVM:          st.fastVM,
	})
	l.newAlloc += (allocBytes() - a0) / mb
	l.newMS = append(l.newMS, t.end(s))
	if err != nil {
		return verdicts{}, err
	}
	l.fuzzed++

	s = t.begin(c.trace, root, "fuzz.loop")
	a0 = allocBytes()
	_, err = f.RunPhase(ctx)
	l.loopAlloc += (allocBytes() - a0) / mb
	l.loopMS = append(l.loopMS, t.end(s))
	if err != nil {
		return verdicts{}, err
	}

	s = t.begin(c.trace, root, "fuzz.scenarios")
	res, err := f.Finish(ctx)
	l.scenariosMS = append(l.scenariosMS, t.end(s))
	if err != nil {
		return verdicts{}, err
	}
	l.iterations += res.Iterations
	l.coverage += res.Coverage
	l.adaptive += res.AdaptiveSeeds
	l.replayErrors += res.ReplayErrors
	l.solver.Queries += res.SolverStats.Queries
	l.solver.FastPathHits += res.SolverStats.FastPathHits
	l.solver.SATCalls += res.SolverStats.SATCalls
	l.solver.SATConflicts += res.SolverStats.SATConflicts
	l.solver.Propagations += res.SolverStats.Propagations
	l.solver.Unknowns += res.SolverStats.Unknowns
	var v verdicts
	for i, class := range contractgen.Classes {
		v[i] = res.Report.Vulnerable[class]
	}
	return v, nil
}

// profiled runs fn under the CPU profiler and records, for each layer the
// benchmark cannot span from outside, the share of samples whose stack
// passes through it.
func (l *layers) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	l.shares, err = cpuShares(buf.Bytes(), profiledLayers)
	return err
}

// profiledLayers maps share metrics to the functions whose cumulative
// samples they count.
var profiledLayers = map[string][]string{
	"chain.exec_share":       {"repro/internal/chain.(*Blockchain).PushTransaction"},
	"exec.instantiate_share": {"repro/internal/wasm/exec.Instantiate"},
	"symexec.replay_share":   {"repro/internal/symexec.Run"},
	"symbolic.solve_share":   {"repro/internal/symbolic.SolvePoolCtx"},
	"runtime.gc_share":       {"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"},
}

// traceRun measures the untraced reference pass and the traced pass over
// the same inputs, checks they agree, and reports the per-layer metrics.
func traceRun(o options, b runner, pinned string, hasPin bool) (*result, error) {
	t := newTracer()
	l := &layers{}
	ref, out, err := b.trace(t, l)
	if err != nil {
		return nil, fmt.Errorf("%s trace: %w", o.workload, err)
	}
	spansPath := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := t.write(spansPath); err != nil {
		return nil, err
	}
	cov := t.coverage()
	refDigest, digest := hash(ref.digest), hash(out.digest)
	correct := ref.failed == 0 && out.failed == 0 && digest == refDigest &&
		(!hasPin || refDigest == pinned) && cov >= minCoverage
	fmt.Printf("%s %s traced: %d contracts, span coverage %.4f, digest %s, untraced digest %s (pinned: %v), spans in %s\n",
		o.workload, b.pinKey(), out.contracts, cov, digest, refDigest, hasPin, spansPath)

	mean := func(sum float64, n int) float64 { return sum / float64(max(n, 1)) }
	fz := l.fuzzed
	m := map[string]metric{
		"wasm.decode_ms":                 {median(l.decodeMS), "ms"},
		"wasm.bytes":                     {mean(l.wasmBytes, l.decoded), "bytes"},
		"fuzz.new_ms":                    {median(l.newMS), "ms"},
		"fuzz.new_alloc_mb":              {mean(l.newAlloc, fz), "MB"},
		"fuzz.loop_ms":                   {median(l.loopMS), "ms"},
		"fuzz.loop_alloc_mb":             {mean(l.loopAlloc, fz), "MB"},
		"fuzz.iterations":                {mean(float64(l.iterations), fz), "count"},
		"fuzz.coverage_branches":         {mean(float64(l.coverage), fz), "count"},
		"fuzz.adaptive_seeds":            {mean(float64(l.adaptive), fz), "count"},
		"fuzz.replay_errors":             {mean(float64(l.replayErrors), fz), "count"},
		"fuzz.scenarios_ms":              {median(l.scenariosMS), "ms"},
		"fuzz.seed_yield":                {ratio(l.adaptive, l.solver.Queries), "ratio"},
		"symbolic.queries":               {mean(float64(l.solver.Queries), fz), "count"},
		"symbolic.fast_path_hits":        {mean(float64(l.solver.FastPathHits), fz), "count"},
		"symbolic.sat_calls":             {mean(float64(l.solver.SATCalls), fz), "count"},
		"symbolic.conflicts":             {mean(float64(l.solver.SATConflicts), fz), "count"},
		"symbolic.propagations":          {mean(float64(l.solver.Propagations), fz), "count"},
		"symbolic.unknowns":              {mean(float64(l.solver.Unknowns), fz), "count"},
		"static.analyze_ms":              {median(l.staticMS), "ms"},
		"absint.analyze_ms":              {median(l.absintMS), "ms"},
		"absint.decided_ratio":           {ratio(l.decided, l.verdictClasses), "ratio"},
		"campaign.skipped":               {float64(ref.skipped), "count"},
		"campaign.retried":               {float64(ref.retried), "count"},
		"campaign.utilization":           {ref.busy.Seconds() / (ref.wall.Seconds() * float64(max(ref.slots, 1))), "ratio"},
		"memo.hit_rate":                  {l.memo.HitRate(), "ratio"},
		"memo.solver_hits":               {float64(l.memo.SolverHits + l.memo.SolverUnsatHits), "count"},
		"memo.solver_misses":             {float64(l.memo.SolverMisses), "count"},
		"memo.module_hits":               {float64(l.memo.ModuleHits), "count"},
		"memo.verdict_hits":              {float64(l.memo.VerdictHits), "count"},
		"serve.submit_ms":                {median(l.submitMS), "ms"},
		"serve.queue_wait_ms":            {median(l.queueMS), "ms"},
		"serve.run_ms":                   {median(l.runMS), "ms"},
		"wal.appends":                    {float64(l.wal.Appends), "count"},
		"wal.syncs":                      {float64(l.wal.Syncs), "count"},
		"store.writes":                   {float64(l.storeWrites), "count"},
		"store.hits":                     {float64(l.storeHits), "count"},
		"trace.coverage":                 {cov, "ratio"},
		"trace.contracts_per_s":          {float64(out.contracts) / out.wall.Seconds(), "1/s"},
		"trace.untraced_contracts_per_s": {float64(ref.contracts) / ref.wall.Seconds(), "1/s"},
	}
	for name := range profiledLayers {
		m[name] = metric{l.shares[name], "ratio"}
	}
	return &result{Correct: correct, Attempted: out.contracts, Failed: out.failed, Metrics: m}, nil
}
