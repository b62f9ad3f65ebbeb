package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// servechaos.go is the daemon-resilience experiment: it stands up the
// wasai-serve engine in-process, floods it past its admission limits
// with fault-injected campaign specs from several tenants, and checks
// the service contract end to end:
//
//  1. saturation sheds with 429 + Retry-After instead of queueing
//     unboundedly, and tenants are isolated (a flooding tenant cannot
//     starve the others out of admission);
//  2. every admitted job completes and its findings digest is
//     byte-identical to an offline campaign.Run of the same spec —
//     shedding, multi-tenant scheduling, WAL checkpointing and the
//     durable memo store perturb nothing;
//  3. the specs carry fault injection with retry-with-degradation, so
//     the whole chaos path rides under the service too.
//
// `make serve-chaos` wires this into the repo's verify gate.

// ServeChaosConfig tunes the experiment.
type ServeChaosConfig struct {
	// Tenants submit Burst specs each; each spec is a campaign of
	// NumContracts contracts fuzzed for FuzzIterations.
	Tenants      int
	Burst        int
	NumContracts int
	// FuzzIterations is the per-contract budget; Workers the campaign
	// pool size inside each job.
	FuzzIterations int
	Workers        int
	Seed           int64
	// FaultRate is the fraction of contracts whose first attempt is
	// faulted (with MaxAttempts retries available).
	FaultRate   float64
	MaxAttempts int
	// TenantMaxQueued is the per-tenant admission limit; the burst
	// exceeds it so shedding must engage.
	TenantMaxQueued int
}

// DefaultServeChaosConfig is the verify-gate smoke shape: three tenants
// each bursting past a two-deep queue, 20% fault injection.
func DefaultServeChaosConfig() ServeChaosConfig {
	return ServeChaosConfig{
		Tenants:         3,
		Burst:           5,
		NumContracts:    6,
		FuzzIterations:  50,
		Seed:            13,
		FaultRate:       0.2,
		MaxAttempts:     3,
		TenantMaxQueued: 2,
	}
}

// ServeChaosResult reports how the daemon behaved under the flood.
type ServeChaosResult struct {
	Tenants   int
	Submitted int
	Admitted  int
	Shed      int
	// ShedWithoutRetryAfter counts 429 responses missing the header —
	// a contract violation.
	ShedWithoutRetryAfter int
	// TenantsAdmitted counts tenants that got at least one job through —
	// tenant isolation means all of them.
	TenantsAdmitted int
	Completed       int
	Failed          int
	// DigestMismatches counts admitted jobs whose findings digest
	// diverged from the offline reference run of the same spec.
	DigestMismatches int
	// StoreHits/StoreWrites are the durable store's traffic (reported
	// via /stats, proving the disk tier rode along).
	StoreHits, StoreWrites int64
}

// Passed reports whether the daemon honoured the service contract.
func (r *ServeChaosResult) Passed() bool {
	return r.Shed > 0 &&
		r.ShedWithoutRetryAfter == 0 &&
		r.Admitted > 0 &&
		r.TenantsAdmitted == r.Tenants &&
		r.Failed == 0 &&
		r.DigestMismatches == 0
}

// EvaluateServeChaos runs the experiment.
func EvaluateServeChaos(cfg ServeChaosConfig) (*ServeChaosResult, error) {
	dataDir, err := os.MkdirTemp("", "wasai-servechaos")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	s, err := serve.New(serve.Config{
		DataDir: dataDir,
		Limits: serve.Limits{
			MaxRunning:       2,
			TenantMaxRunning: 1,
			TenantMaxQueued:  cfg.TenantMaxQueued,
			RetryAfter:       2 * time.Second,
		},
		StoreDir: dataDir + "/store",
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mkSpec := func(tenant, i int) serve.JobSpec {
		return serve.JobSpec{
			Tenant:      fmt.Sprintf("tenant-%d", tenant),
			Name:        fmt.Sprintf("t%d-job%d", tenant, i),
			Contracts:   cfg.NumContracts,
			Seed:        cfg.Seed + int64(tenant*1000+i),
			Iterations:  cfg.FuzzIterations,
			Workers:     cfg.Workers,
			FaultRate:   cfg.FaultRate,
			MaxAttempts: cfg.MaxAttempts,
			Memo:        "shared",
		}
	}

	// Phase 1: burst every tenant before the scheduler starts, so
	// admission decisions are a pure function of the limits.
	res := &ServeChaosResult{Tenants: cfg.Tenants}
	admitted := map[int]serve.JobSpec{}
	tenantsIn := map[int]bool{}
	for tenant := 0; tenant < cfg.Tenants; tenant++ {
		for i := 0; i < cfg.Burst; i++ {
			spec := mkSpec(tenant, i)
			res.Submitted++
			b, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			switch resp.StatusCode {
			case http.StatusAccepted:
				var out map[string]int
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					resp.Body.Close()
					return nil, err
				}
				admitted[out["id"]] = spec
				tenantsIn[tenant] = true
			case http.StatusTooManyRequests:
				res.Shed++
				if resp.Header.Get("Retry-After") == "" {
					res.ShedWithoutRetryAfter++
				}
			default:
				resp.Body.Close()
				return nil, fmt.Errorf("bench: servechaos: unexpected status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	res.Admitted = len(admitted)
	res.TenantsAdmitted = len(tenantsIn)

	// Phase 2: run the admitted jobs to completion, then drain.
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	for id, spec := range admitted {
		st, err := waitJob(ts.URL, id, 5*time.Minute)
		if err != nil {
			cancel()
			<-runDone
			return nil, err
		}
		if st.Status != serve.StatusCompleted {
			res.Failed++
			continue
		}
		res.Completed++
		ref, err := serve.RunSpec(context.Background(), spec, "", false, nil)
		if err != nil {
			cancel()
			<-runDone
			return nil, fmt.Errorf("bench: servechaos reference: %w", err)
		}
		if st.FindingsDigest != ref.FindingsDigest() {
			res.DigestMismatches++
		}
	}

	var stats serve.StatsReport
	if err := getJSONURL(ts.URL+"/stats", &stats); err == nil && stats.Store != nil {
		res.StoreHits = stats.Store.Hits
		res.StoreWrites = stats.Store.Writes
	}
	cancel()
	if err := <-runDone; err != nil {
		return nil, fmt.Errorf("bench: servechaos drain: %w", err)
	}
	return res, nil
}

func waitJob(base string, id int, timeout time.Duration) (serve.JobState, error) {
	deadline := time.Now().Add(timeout) //wasai:nondet experiment polling deadline
	for {
		var st serve.JobState
		if err := getJSONURL(fmt.Sprintf("%s/jobs/%d", base, id), &st); err != nil {
			return st, err
		}
		if st.Finished() {
			return st, nil
		}
		if time.Now().After(deadline) { //wasai:nondet experiment polling deadline
			return st, fmt.Errorf("bench: servechaos: job %d not finished after %v", id, timeout)
		}
		time.Sleep(20 * time.Millisecond) //wasai:nondet experiment polling
	}
}

func getJSONURL(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: servechaos: GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// RenderServeChaos prints the experiment summary.
func RenderServeChaos(r *ServeChaosResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "servechaos — daemon admission control + digest identity under flood\n")
	fmt.Fprintf(&sb, "submitted: %d  admitted: %d  shed(429): %d (missing Retry-After: %d)\n",
		r.Submitted, r.Admitted, r.Shed, r.ShedWithoutRetryAfter)
	fmt.Fprintf(&sb, "tenants with admitted work: %d/%d\n", r.TenantsAdmitted, r.Tenants)
	fmt.Fprintf(&sb, "completed: %d  failed: %d  digest mismatches vs offline reference: %d\n",
		r.Completed, r.Failed, r.DigestMismatches)
	fmt.Fprintf(&sb, "durable store: hits=%d writes=%d\n", r.StoreHits, r.StoreWrites)
	if r.Passed() {
		sb.WriteString("PASS: shed under saturation, all admitted digests identical\n")
	} else {
		sb.WriteString("FAIL\n")
	}
	return sb.String()
}
