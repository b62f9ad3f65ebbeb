package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

func TestRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, pending, err := openRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh registry has pending jobs: %v", pending)
	}
	spec := JobSpec{Tenant: "t1", Contracts: 4, Seed: 9}
	id0, err := r.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := r.submit(JobSpec{Tenant: "t2", Contracts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d, %d; want 0, 1", id0, id1)
	}
	if err := r.finish(id0, stateRecord{FindingsDigest: "d0", StateDigest: "s0", Completed: 4}); err != nil {
		t.Fatal(err)
	}
	r.close()

	// Reopen: the finished job keeps its outcome, the unfinished one is
	// the pending (interrupted) work.
	r2, pending, err := openRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.close()
	if len(pending) != 1 || pending[0] != id1 {
		t.Fatalf("pending = %v, want [%d]", pending, id1)
	}
	j0, ok := r2.get(id0)
	if !ok || j0.Status != StatusCompleted || j0.FindingsDigest != "d0" || j0.Completed != 4 {
		t.Fatalf("job 0 after reopen: %+v", j0)
	}
	j1, ok := r2.get(id1)
	if !ok || j1.Status != StatusQueued || !j1.Resumed {
		t.Fatalf("job 1 after reopen: %+v", j1)
	}
	if next, err := r2.submit(spec); err != nil || next != 2 {
		t.Fatalf("next id after reopen = %d, %v; want 2", next, err)
	}
}

func TestRegistryRotation(t *testing.T) {
	dir := t.TempDir()
	r, _, err := openRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := rotateEvery + keepCompleted/2
	for i := 0; i < n; i++ {
		id, err := r.submit(JobSpec{Contracts: 1, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.finish(id, stateRecord{FindingsDigest: "d", Completed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// One unfinished job riding along.
	last, err := r.submit(JobSpec{Contracts: 1, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.walStats(); st.Rotations == 0 || st.Gen < 2 {
		t.Fatalf("registry never rotated: %+v", st)
	}
	r.close()

	r2, pending, err := openRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.close()
	if len(pending) != 1 || pending[0] != last {
		t.Fatalf("pending after rotation = %v, want [%d]", pending, last)
	}
	// The compaction kept keepCompleted finished jobs at rotation time
	// (plus whatever finished since), and IDs keep counting monotonically
	// past the dropped ones.
	_, _, completed, _ := r2.counts()
	if max := keepCompleted + (n - rotateEvery); completed > max {
		t.Errorf("completed after rotation = %d, want <= %d", completed, max)
	}
	if completed >= n {
		t.Errorf("rotation compacted nothing: %d completed jobs survive", completed)
	}
	if id, err := r2.submit(JobSpec{Contracts: 1, Seed: 1}); err != nil || id != last+1 {
		t.Fatalf("next id after rotation = %d, %v; want %d", id, err, last+1)
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		ok   bool
	}{
		{JobSpec{Contracts: 4, Seed: 1}, true},
		{JobSpec{Contracts: 0}, false},
		{JobSpec{Contracts: 20_000}, false},
		{JobSpec{Contracts: 4, FaultRate: 1.5}, false},
		{JobSpec{Contracts: 4, Memo: "banana"}, false},
		{JobSpec{Contracts: 4, Memo: "shared", FaultRate: 0.2}, true},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}

// TestServerEndToEnd drives the full HTTP surface in-process: submit,
// poll to completion, digests match an offline reference run of the
// same spec.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, StoreDir: filepath.Join(dir, "store")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	spec := JobSpec{Tenant: "t1", Name: "e2e", Contracts: 4, Seed: 11, Iterations: 30, Memo: "shared"}
	id := submitJob(t, ts.URL, spec)
	st := waitFinished(t, ts.URL, id, 60*time.Second)
	if st.Status != StatusCompleted {
		t.Fatalf("job finished as %q (err %q)", st.Status, st.Err)
	}

	ref, err := RunSpec(context.Background(), spec, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FindingsDigest != ref.FindingsDigest() || st.StateDigest != ref.StateDigest() {
		t.Errorf("daemon digests diverge from reference:\n got: %q / %q\nwant: %q / %q",
			st.FindingsDigest, st.StateDigest, ref.FindingsDigest(), ref.StateDigest())
	}

	// /stats reflects the completed job and the attached store.
	var stats StatsReport
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Completed != 1 || stats.Store == nil {
		t.Errorf("stats = %+v", stats)
	}

	// A client still sending the retired engine toggles is admitted, and
	// the keys change nothing.
	body := `{"tenant":"t1","name":"e2e","contracts":4,"seed":11,"iterations":30,"memo":"shared","incremental":true,"fastvm":true,"static_triage":true,"verdicts":true}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit with retired keys = %d (%v), want 202", resp.StatusCode, err)
	}
	if st2 := waitFinished(t, ts.URL, out["id"], 60*time.Second); st2.FindingsDigest != st.FindingsDigest || st2.StateDigest != st.StateDigest {
		t.Errorf("retired keys changed the digests: %+v", st2)
	}

	// Drain: readyz flips to 503, Run returns cleanly.
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained = %d, want 503", resp.StatusCode)
	}
	// The job's outcome survived on disk.
	r2, pending, err := openRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.close()
	if len(pending) != 0 {
		t.Errorf("drained daemon left pending jobs: %v", pending)
	}
	if j, ok := r2.get(id); !ok || j.FindingsDigest != st.FindingsDigest {
		t.Errorf("outcome lost across restart: %+v", j)
	}
}

func TestSubmitValidationAndNotFound(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.reg.close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(`{"contracts":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// --- HTTP test helpers ------------------------------------------------------

func submitJob(t *testing.T, base string, spec JobSpec) int {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"]
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitFinished(t *testing.T, base string, id int, timeout time.Duration) JobState {
	t.Helper()
	deadline := time.Now().Add(timeout) //wasai:nondet test polling deadline
	for {
		var st JobState
		getJSON(t, fmt.Sprintf("%s/jobs/%d", base, id), &st)
		if st.Finished() {
			return st
		}
		if time.Now().After(deadline) { //wasai:nondet test polling deadline
			t.Fatalf("job %d not finished after %v: %+v", id, timeout, st)
		}
		time.Sleep(10 * time.Millisecond) //wasai:nondet test polling
	}
}
