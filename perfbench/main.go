// Command perfbench is the repository's benchmark. It runs one named
// workload against the analysis pipeline, checks every finding, and prints
// the workload's end-to-end metrics — or, with --trace 1, the per-layer
// metrics of a separate traced run — as one JSON line on standard output.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload wild --seed 1 --seconds 15 --trace 0
//
// README.md in this directory explains the workloads, the metrics and the
// noise guards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke (set by the smoke test) shrinks the per-contract fuzzing
	// budget so every workload runs in seconds; sample counts stay above
	// the percentile guard.
	smoke bool
	// workdir holds daemon scratch directories and span files.
	workdir string
	// pinsFile is the JSON file of pinned findings digests.
	pinsFile string
}

// gcPercent replaces the default GOGC of 100. With the default, the
// collector's pacing on two cores was the largest run-to-run noise source:
// identical runs of the forks workload spread 14% in throughput, against
// 7% at 400. Allocation still shows in the traced run's alloc and GC
// metrics.
const gcPercent = 400

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass over a workload's inputs produced.
type outcome struct {
	contracts int // contracts attempted
	failed    int // contracts that ended in an error
	wall      time.Duration
	cpu       time.Duration
	// latencies are per contract (batch workloads) or per job (serve), in
	// ms; a failure is +Inf, missing every limit.
	latencies []float64
	// digest is the canonical findings digest of the pass.
	digest string
	score  score
	// busy sums per-contract (or per-job) run time for the campaign
	// utilization; slots is the number of parallel workers.
	busy    time.Duration
	slots   int
	skipped int
	retried int
	// note qualifies the latency (serve: its poll interval).
	note string
}

// runner is one workload bound to a seed and run size.
type runner interface {
	// setup builds the seed's inputs, opens what the workload needs and
	// runs the untimed warm-up pass. All of it counts in setup_s.
	setup() error
	// measure runs the timed pass over the inputs, tracing off.
	measure() (*outcome, error)
	// trace runs an untraced reference pass and then the traced pass over
	// the same inputs, recording spans into t and layer observations into
	// l. The two passes must find the same.
	trace(t *tracer, l *layers) (ref, out *outcome, err error)
	// pinKey names the inputs in the digest pin file.
	pinKey() string
	close()
}

var workloads = map[string]func(options) runner{
	"wild":  newWild,
	"forks": newForks,
	"serve": newServe,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: wild, forks or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.pinsFile = filepath.Join("perfbench", "digests.json")

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up several times, then measures (or traces) it.
func run(o options) (*result, error) {
	newBench, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want wild, forks or serve)", o.workload)
	}
	debug.SetGCPercent(gcPercent)
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	pins, err := loadPins(o.pinsFile)
	if err != nil {
		return nil, err
	}

	var b runner
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		if b != nil {
			b.close()
		}
		b = newBench(o)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.close()
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	runtime.GC() // start the window with a clean heap, not setup garbage

	pinned, hasPin := pins[o.workload][b.pinKey()]
	if o.trace {
		return traceRun(o, b, pinned, hasPin)
	}

	out, err := b.measure()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	digest := hash(out.digest)
	correct := out.failed == 0 && (!hasPin || digest == pinned)
	if hasPin && digest != pinned {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: findings digest %s, pinned %s\n", o.workload, b.pinKey(), digest, pinned)
	}
	p50, err := percentile(out.latencies, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(out.latencies, 0.90)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s %s: %d contracts in %.2fs, %d latency samples%s, digest %s (pinned: %v)\n",
		o.workload, b.pinKey(), out.contracts, out.wall.Seconds(), len(out.latencies), out.note, digest, hasPin)
	return &result{
		Correct:   correct,
		Attempted: out.contracts,
		Failed:    out.failed,
		Metrics: map[string]metric{
			"contracts_per_s":     {float64(out.contracts) / out.wall.Seconds(), "1/s"},
			"latency_p50_ms":      {p50, "ms"},
			"latency_p90_ms":      {p90, "ms"},
			"cpu_ms_per_contract": {ms(out.cpu) / float64(out.contracts), "ms"},
			"setup_s":             {median(setups), "s"},
			"success_rate":        {1 - ratio(out.failed, out.contracts), "ratio"},
			"recall":              {out.score.recall(), "ratio"},
			"precision":           {out.score.precision(), "ratio"},
		},
	}, nil
}

// loadPins reads {workload: {pin key: digest}}; a missing file pins nothing.
func loadPins(path string) (map[string]map[string]string, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(raw, &pins); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pins, nil
}
