package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at a tiny size on two seeds, untraced and
// traced, and checks that each run prints exactly the metrics BENCHMARK.json
// names with their units, fails no contract, finds the same as its own
// reference, and (traced) writes one span tree per contract.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed%d/trace=%v", w.Name, seed, traced)
				t.Run(name, func(t *testing.T) {
					o := options{workload: w.Name, seed: seed, seconds: 1, trace: traced, smoke: true,
						workdir: t.TempDir(), pinsFile: "digests.json"}
					res, err := run(o)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct {
						t.Errorf("run not correct: %+v", res)
					}
					if res.Failed != 0 {
						t.Errorf("error rate %d/%d, want 0", res.Failed, res.Attempted)
					}
					want := spec.EndToEnd
					if traced {
						want = spec.PerLayer
					}
					checkMetrics(t, res, want)
					if traced {
						checkSpanTrees(t, o, res)
					} else if got := res.Metrics["success_rate"].Value; got != 1 {
						t.Errorf("success_rate %v, want 1", got)
					}
				})
			}
		}
	}
}

func checkMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s printed in %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// checkSpanTrees counts the roots of the written span file: one
// "contract" tree per traced contract, plus one "job" tree per serve job.
func checkSpanTrees(t *testing.T, o options, res *result) {
	t.Helper()
	f, err := os.Open(filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roots := map[string]int{}
	traces := map[int]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Parent == 0 {
			roots[s.Name]++
			if traces[s.Trace] {
				t.Errorf("trace %d has two roots", s.Trace)
			}
			traces[s.Trace] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if roots["contract"] != res.Attempted {
		t.Errorf("%d contract span trees for %d contracts", roots["contract"], res.Attempted)
	}
	if o.workload == "serve" && roots["job"]*serveContracts != res.Attempted {
		t.Errorf("%d job span trees for %d contracts", roots["job"], res.Attempted)
	}
}
