package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	wasai "repro"
	"repro/internal/bench"
	"repro/internal/contractgen"
	"repro/internal/memo"
	"repro/internal/wasm"
)

// Sizing. A run analyses a fixed population sized from --seconds with a
// nominal rate (contracts per second on a 2-core x86-64 box), so the
// findings of a (seed, --seconds) pair are fixed while the timed window
// still lasts about --seconds. Every population has at least minSamples
// contracts (or jobs), enough for ten samples beyond p90.
const (
	minSamples = 100
	wildRate   = 48 // contracts/s, 1 worker, default config
	forksRate  = 80 // contracts/s, 2 workers, every digest-neutral layer on
	forkFactor = 6  // forks per distinct verification contract
	warmWild   = 24 // warm-up contracts
	warmForks  = 24
	// warmSeedOffset separates the warm-up inputs from the measured ones,
	// so the warm-up never pre-fills a cache the window then hits.
	warmSeedOffset = 1_000_003
	smokeIters     = 24
)

// input is one contract as a scanner receives it: Wasm bytes and ABI JSON,
// with the generator's ground truth.
type input struct {
	name  string
	wasm  []byte
	abi   []byte
	label label
}

func encode(name string, c *contractgen.Contract, l label) (input, error) {
	bin, err := wasm.Encode(c.Module)
	if err != nil {
		return input{}, fmt.Errorf("encode %s: %w", name, err)
	}
	abiJSON, err := json.Marshal(c.ABI)
	if err != nil {
		return input{}, fmt.Errorf("abi %s: %w", name, err)
	}
	return input{name: name, wasm: bin, abi: abiJSON, label: l}, nil
}

// wildInputs draws n contracts of the RQ4 wild population.
func wildInputs(seed int64, n int) ([]input, error) {
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(n), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	out := make([]input, len(pop))
	for i := range pop {
		if out[i], err = encode(pop[i].Name.String(), pop[i].Contract, wildLabel(pop[i].Truth)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forkInputs draws n contracts (balanced when n is a multiple of forksUnit): §4.3
// verification-clause contracts of the five Table 6 classes, each deployed
// as forkFactor forks. The batch fuzzes fork i with seed base+i, so forks
// share bytecode but not inputs.
func forkInputs(seed int64, n int) ([]input, error) {
	// BuildVerification draws at least four samples for every class; only
	// the Table 6 classes are kept.
	counts := map[contractgen.Class]int{}
	for class := range bench.Table6Counts {
		counts[class] = n / forksUnit * 2
	}
	ds, err := bench.BuildVerification(counts, bench.Options{Scale: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	var out []input
	d := 0
	for _, s := range ds.Samples {
		if _, ok := bench.Table6Counts[s.Class]; !ok {
			continue
		}
		var l label
		for i, class := range contractgen.Classes {
			if class == s.Class {
				l.truth[i], l.known[i] = s.Truth, true
			}
		}
		d++
		for f := 0; f < forkFactor; f++ {
			in, err := encode(fmt.Sprintf("fork-%d-%d", d-1, f), s.Contract, l)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out[:min(n, len(out))], nil
}

// batchBench is a workload that submits its population to
// wasai.AnalyzeBatch: wild and forks differ only in inputs and config.
type batchBench struct {
	o      options
	cfg    wasai.BatchConfig
	n      int
	warmN  int
	inputs func(seed int64, n int) ([]input, error)

	timed []input
}

func newWild(o options) runner {
	cfg := wasai.DefaultBatchConfig()
	cfg.Workers = 1
	if o.smoke {
		cfg.Iterations = smokeIters
	}
	return &batchBench{o: o, cfg: cfg, n: max(minSamples, o.seconds*wildRate),
		warmN: warmWild, inputs: wildInputs}
}

func newForks(o options) runner {
	cfg := wasai.DefaultBatchConfig()
	cfg.Workers = min(2, runtime.NumCPU())
	cfg.Memo = string(memo.ModeOn)
	cfg.Incremental = true
	cfg.FastVM = true
	cfg.Verdicts = true
	cfg.StaticTriage = true
	if o.smoke {
		cfg.Iterations = smokeIters
	}
	n := roundUp(max(2*forksUnit, o.seconds*forksRate), forksUnit)
	return &batchBench{o: o, cfg: cfg, n: n, warmN: warmForks, inputs: forkInputs}
}

// forksUnit is the forks population step: one vulnerable and one safe
// sample of each of the five Table 6 classes, every one as forkFactor
// forks. BuildVerification needs at least two steps.
const forksUnit = 5 * 2 * forkFactor

func roundUp(n, unit int) int { return (n + unit - 1) / unit * unit }

func (b *batchBench) pinKey() string { return pinKey(b.o, b.n) }

func pinKey(o options, n int) string {
	key := fmt.Sprintf("seed=%d,n=%d", o.seed, n)
	if o.smoke {
		key += ",smoke"
	}
	return key
}

func (b *batchBench) setup() error {
	var err error
	b.cfg.Seed = b.o.seed
	if b.timed, err = b.inputs(1, b.n); err != nil {
		return err
	}
	warm, err := b.inputs(b.o.seed+warmSeedOffset, b.warmN)
	if err != nil {
		return err
	}
	out, err := b.analyze(warm)
	if err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("warm-up: %d contracts failed", out.failed)
	}
	return nil
}

func (b *batchBench) measure() (*outcome, error) { return b.analyze(b.timed) }

// analyze runs one batch over the inputs and scores its findings.
func (b *batchBench) analyze(in []input) (*outcome, error) {
	jobs := make([]wasai.BatchJob, len(in))
	for i := range in {
		jobs[i] = wasai.BatchJob{Name: in[i].name, Wasm: in[i].wasm, ABIJSON: in[i].abi}
	}
	cpu0, t0 := cpuTime(), time.Now()
	rep, err := wasai.AnalyzeBatch(context.Background(), jobs, b.cfg)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return nil, err
	}
	out := &outcome{contracts: len(in), wall: wall, cpu: cpu, slots: b.cfg.Workers,
		skipped: rep.Skipped, retried: rep.Retried}
	lines := make([]string, len(rep.Jobs))
	for i, jr := range rep.Jobs {
		out.busy += jr.Duration
		if jr.Err != nil {
			out.failed++
			out.latencies = append(out.latencies, math.Inf(1))
			lines[i] = digestLine(jr.Index, jr.Name, verdicts{}, jr.Err)
			continue
		}
		out.latencies = append(out.latencies, ms(jr.Duration))
		var got verdicts
		for k, f := range jr.Report.Findings {
			got[k] = f.Vulnerable
		}
		out.score.add(got, in[i].label)
		lines[i] = digestLine(jr.Index, jr.Name, got, nil)
	}
	out.digest = findingsDigest(lines)
	return out, nil
}

// trace runs the untraced batch as the reference, then the same inputs
// contract by contract through the layers with one worker.
func (b *batchBench) trace(t *tracer, l *layers) (ref, out *outcome, err error) {
	if ref, err = b.measure(); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	st := stages{
		decode:       true,
		staticTriage: b.cfg.StaticTriage,
		verdicts:     b.cfg.Verdicts,
		iterations:   b.cfg.Iterations,
		conflicts:    b.cfg.SolverConflicts,
		incremental:  b.cfg.Incremental,
		fastVM:       b.cfg.FastVM,
	}
	var cache *memo.Cache
	if b.cfg.Memo == string(memo.ModeOn) {
		cache = memo.New()
	}
	out = &outcome{contracts: len(b.timed), slots: 1}
	lines := make([]string, len(b.timed))
	t0 := time.Now()
	err = l.profiled(func() error {
		for i, in := range b.timed {
			c := contractInput{trace: i, wasm: in.wasm, abiJSON: in.abi, seed: b.cfg.Seed + int64(i)}
			got, err := traceContract(t, l, st, cache, c)
			lines[i] = digestLine(i, in.name, got, err)
			if err != nil {
				out.failed++
				continue
			}
			out.score.add(got, in.label)
		}
		return nil
	})
	out.wall = time.Since(t0)
	out.digest = findingsDigest(lines)
	l.memo = cache.Snapshot()
	return ref, out, err
}

func (b *batchBench) close() {}
