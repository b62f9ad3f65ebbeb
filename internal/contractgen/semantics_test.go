package contractgen

import (
	"bytes"
	"testing"

	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// runSemReference executes p's "run" export on the reference interpreter,
// returning the result, the observed note sequence, and any error.
func runSemReference(t *testing.T, p *SemProgram) (uint64, []uint64, error) {
	t.Helper()
	var notes []uint64
	resolver := exec.Resolver{"sem": exec.HostModule{
		"note": func(vm *exec.VM, args []uint64) ([]uint64, error) {
			notes = append(notes, args[0])
			return nil, nil
		},
	}}
	c, err := exec.Compile(p.Module)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	inst, err := c.Link(resolver)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	res, err := exec.NewVM(inst).Invoke("run")
	if err != nil {
		return 0, notes, err
	}
	if len(res) != 1 {
		t.Fatalf("run returned %d results", len(res))
	}
	return res[0], notes, nil
}

// TestSemanticsDeterministicSeed: the generator is a pure function of its
// seed — same seed, byte-identical encoded module and identical oracle.
func TestSemanticsDeterministicSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 12345, -9} {
		a := GenerateSemantics(seed)
		b := GenerateSemantics(seed)
		ba, err := wasm.Encode(a.Module)
		if err != nil {
			t.Fatalf("seed %d: encode a: %v", seed, err)
		}
		bb, err := wasm.Encode(b.Module)
		if err != nil {
			t.Fatalf("seed %d: encode b: %v", seed, err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("seed %d: modules differ across generations", seed)
		}
		if a.Return != b.Return || len(a.Notes) != len(b.Notes) || a.Checks != b.Checks {
			t.Fatalf("seed %d: oracles differ across generations", seed)
		}
	}
	if ra, _ := wasm.Encode(GenerateSemantics(3).Module); true {
		rb, _ := wasm.Encode(GenerateSemantics(4).Module)
		if bytes.Equal(ra, rb) {
			t.Fatal("distinct seeds produced identical modules")
		}
	}
}

// TestSemanticsSweep: a 256-seed sweep — every generated module validates,
// decode/encode round-trips, and its self-checks pass on the reference VM
// with the predicted return value and note sequence. This guards generator
// bugs from masquerading as engine bugs in the differential gate.
func TestSemanticsSweep(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		p := GenerateSemantics(seed)
		if p.Checks == 0 {
			t.Fatalf("seed %d: no self-checks generated", seed)
		}
		if err := wasm.Validate(p.Module); err != nil {
			t.Fatalf("seed %d: generated module invalid: %v", seed, err)
		}
		bin, err := wasm.Encode(p.Module)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		if _, err := wasm.Decode(bin); err != nil {
			t.Fatalf("seed %d: decode round-trip: %v", seed, err)
		}
		got, notes, err := runSemReference(t, p)
		if err != nil {
			t.Fatalf("seed %d: self-check failed on reference VM: %v", seed, err)
		}
		if got != p.Return {
			t.Fatalf("seed %d: return %#x, predicted %#x", seed, got, p.Return)
		}
		if len(notes) != len(p.Notes) {
			t.Fatalf("seed %d: %d notes, predicted %d", seed, len(notes), len(p.Notes))
		}
		for i := range notes {
			if notes[i] != p.Notes[i] {
				t.Fatalf("seed %d: note %d = %#x, predicted %#x", seed, i, notes[i], p.Notes[i])
			}
		}
	}
}
