package wasai

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/symexec"
	"repro/internal/trace"
	wasmpkg "repro/internal/wasm"
)

// instrumentOnce is shared by the benchmarks.
func instrumentOnce(m *wasmpkg.Module) (*instrument.Result, error) {
	return instrument.Instrument(m, instrument.ModeSparse)
}

// TestAnalyzePublicAPI drives the package through its public entry point:
// binary + ABI JSON in, findings out.
func TestAnalyzePublicAPI(t *testing.T) {
	c, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassFakeEOS, Vulnerable: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := wasmpkg.Encode(c.Module)
	if err != nil {
		t.Fatal(err)
	}
	abiJSON, err := json.Marshal(c.ABI)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Analyze(bin, abiJSON, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := report.Class("Fake EOS"); !ok || !f.Vulnerable {
		t.Errorf("Fake EOS finding: %+v", report.Findings)
	}
	if !report.Vulnerable() {
		t.Error("Vulnerable() should be true")
	}
	if report.Coverage == 0 || report.Iterations == 0 {
		t.Errorf("campaign stats empty: %+v", report)
	}
}

func TestAnalyzeRejectsGarbage(t *testing.T) {
	if _, err := Analyze([]byte("not wasm"), []byte("{}"), DefaultConfig()); err == nil {
		t.Error("want decode error")
	}
	c, _ := contractgen.Generate(contractgen.Spec{Class: contractgen.ClassFakeEOS, Seed: 1})
	bin, _ := wasmpkg.Encode(c.Module)
	if _, err := Analyze(bin, []byte("not json"), DefaultConfig()); err == nil {
		t.Error("want ABI parse error")
	}
	// A nil ABI panics inside the campaign; the caller gets a classified
	// error, not the panic.
	if _, err := AnalyzeModule(c.Module, nil, DefaultConfig()); failure.ClassOf(err) != failure.Panic {
		t.Errorf("AnalyzeModule with a nil ABI: %v, want a panic-classified error", err)
	}
}

// TestTraceFileRoundTripReplay: the offline trace file written by a
// campaign can be read back and replayed through Symback — the paper's
// workflow of exporting traces at finalize_trace and analyzing them
// offline.
func TestTraceFileRoundTripReplay(t *testing.T) {
	c, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassFakeNotif, Vulnerable: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.traces")
	cfg := DefaultConfig()
	cfg.Iterations = 24
	cfg.TraceFile = path
	if _, err := AnalyzeModule(c.Module, c.ABI, cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := trace.Read(f)
	if err != nil {
		t.Fatalf("read offline file: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("no traces exported")
	}
	// Replay the first transfer trace offline.
	replayed := false
	for i := range traces {
		if traces[i].Action.String() != "transfer" || len(traces[i].Events) == 0 {
			continue
		}
		params := []symexec.Param{
			{Type: "name"}, {Type: "name"}, {Type: "asset"}, {Type: "string"},
		}
		res, err := symexec.Run(symexec.NewReplayer(c.Module), &traces[i], params, symexec.Options{})
		if err != nil {
			continue // reverted-in-dispatcher traces have no action call
		}
		if res.Steps == 0 {
			t.Error("offline replay executed no instructions")
		}
		replayed = true
		break
	}
	if !replayed {
		t.Fatal("no offline trace could be replayed")
	}
}

func TestAnalyzeModuleEmptyABI(t *testing.T) {
	// A contract with an ABI declaring no actions still fuzzes through the
	// oracle payloads (transfer-shaped seeds are synthesized).
	c, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassFakeEOS, Vulnerable: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Iterations = 40
	report, err := AnalyzeModule(c.Module, &abi.ABI{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := report.Class("Fake EOS"); !f.Vulnerable {
		t.Error("Fake EOS missed without ABI actions")
	}
}

func TestReportHelpers(t *testing.T) {
	r := &Report{Findings: []Finding{
		{Class: "Fake EOS", Vulnerable: false},
		{Class: "Rollback", Vulnerable: true},
	}}
	if !r.Vulnerable() {
		t.Error("Vulnerable() false with a flagged class")
	}
	if f, ok := r.Class("Rollback"); !ok || !f.Vulnerable {
		t.Errorf("Class lookup: %+v %v", f, ok)
	}
	if _, ok := r.Class("NoSuch"); ok {
		t.Error("found a class that does not exist")
	}
	empty := &Report{}
	if empty.Vulnerable() {
		t.Error("empty report flagged")
	}
}

func TestCustomAPIDetectorsPublic(t *testing.T) {
	c, err := contractgen.Generate(contractgen.Spec{
		Class: contractgen.ClassBlockinfoDep, Vulnerable: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Iterations = 60
	cfg.CustomAPIDetectors = []APIDetector{
		{Name: "TaposUse", APIs: []string{"tapos_block_num", "tapos_block_prefix"}},
	}
	report, err := AnalyzeModule(c.Module, c.ABI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Custom["TaposUse"] {
		t.Error("custom detector should mirror the builtin BlockinfoDep hit")
	}
	if f, _ := report.Class("BlockinfoDep"); !f.Vulnerable {
		t.Error("builtin oracle missed")
	}
}

// TestAnalyzeModuleSingleContractSemantics pins what one AnalyzeModule
// call does, whatever drives it: an adaptive run stops at saturation
// exactly where a bare fuzzer does (the campaign fuel ledger never regrants
// a single contract its own unspent budget), the verdicts answer a
// provably clean contract without fuzzing, and trace capture or a custom
// detector still fuzzes it.
func TestAnalyzeModuleSingleContractSemantics(t *testing.T) {
	c, err := contractgen.Generate(contractgen.Spec{Class: contractgen.ClassFakeEOS, Vulnerable: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Iterations = 60
	cfg.Adaptive = true
	cfg.SaturationWindow = 8
	report, err := AnalyzeModule(c.Module, c.ABI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fuzz.New(c.Module, c.ABI, fuzz.Config{
		Iterations:       cfg.Iterations,
		SolverConflicts:  cfg.SolverConflicts,
		Seed:             cfg.Seed,
		Adaptive:         true,
		SaturationWindow: cfg.SaturationWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations != 9 || res.Iterations != 9 {
		t.Errorf("iterations: AnalyzeModule %d, fuzz.Run %d, want 9 for both", report.Iterations, res.Iterations)
	}
	if want := newReport(res); !reflect.DeepEqual(report, want) {
		t.Errorf("adaptive AnalyzeModule %+v, fuzz.Run %+v", report, want)
	}

	trivial := contractgen.Trivial()
	vcfg := DefaultConfig()
	vcfg.Iterations = 30
	vcfg.Verdicts = true
	if report, err := AnalyzeModule(trivial.Module, trivial.ABI, vcfg); err != nil {
		t.Fatal(err)
	} else if report.Iterations != 0 || report.Vulnerable() {
		t.Errorf("verdicts on a trivial contract: %d iterations, vulnerable=%v; want a clean skip", report.Iterations, report.Vulnerable())
	}
	traced := vcfg
	traced.TraceFile = filepath.Join(t.TempDir(), "trivial.traces")
	custom := vcfg
	custom.CustomAPIDetectors = []APIDetector{{Name: "Time", APIs: []string{"current_time"}}}
	for name, cfg := range map[string]Config{"trace file": traced, "custom detector": custom} {
		report, err := AnalyzeModule(trivial.Module, trivial.ABI, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if report.Iterations != vcfg.Iterations {
			t.Errorf("%s: %d iterations, want the full %d (the verdicts say nothing about it)", name, report.Iterations, vcfg.Iterations)
		}
	}
}
