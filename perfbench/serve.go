package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/contractgen"
	"repro/internal/memo"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	serveTenants   = 2  // closed-loop clients, one per tenant
	serveContracts = 3  // contracts per job
	serveJobRate   = 22 // jobs/s nominal (see the sizing note in batch.go)
	warmServe      = 8  // warm-up jobs
	// pollInterval is how often a client polls its job. Latency is
	// quantized by it, so it is printed with the latency.
	pollInterval = 5 * time.Millisecond
	// loopDeadline bounds a closed loop, so a stuck daemon fails the run
	// instead of hanging it.
	loopDeadline = 150 * time.Second
)

// serveJob is one submission with the ground truth of its population.
type serveJob struct {
	spec   serve.JobSpec
	labels []label
}

// jobResult is one job as its client saw it.
type jobResult struct {
	state                 serve.JobState
	start, submitted, ran time.Time // ran: first poll that saw it leave the queue
	end                   time.Time
}

// serveBench drives an in-process daemon over loopback HTTP.
type serveBench struct {
	o       options
	tenants int
	n       int
	jobs    []serveJob

	dir    string
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newServe(o options) runner {
	return &serveBench{o: o, tenants: min(serveTenants, runtime.NumCPU()), n: max(minSamples, o.seconds*serveJobRate)}
}

func (b *serveBench) pinKey() string { return pinKey(b.o, b.n) }

// serveJobs draws n job specs with distinct population seeds.
func (b *serveBench) serveJobs(seed int64, n int) ([]serveJob, error) {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]serveJob, n)
	for j := range jobs {
		spec := serve.JobSpec{
			Tenant:    fmt.Sprintf("tenant%d", j%b.tenants),
			Name:      fmt.Sprintf("job%d", j),
			Contracts: serveContracts,
			Seed:      rng.Int63n(1 << 40),
			Workers:   1,
			Memo:      string(memo.ModeShared),
		}
		if b.o.smoke {
			spec.Iterations = smokeIters
		}
		// The daemon draws the same population from the spec (serve.BuildJobs).
		pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(spec.Contracts), rand.New(rand.NewSource(spec.Seed)))
		if err != nil {
			return nil, err
		}
		jobs[j].spec = spec
		for _, wc := range pop {
			jobs[j].labels = append(jobs[j].labels, wildLabel(wc.Truth))
		}
	}
	return jobs, nil
}

// setup opens a daemon with a fresh data directory and store, then runs
// the warm-up jobs through it.
func (b *serveBench) setup() error {
	var err error
	if b.jobs, err = b.serveJobs(b.o.seed, b.n); err != nil {
		return err
	}
	warm, err := b.serveJobs(b.o.seed+warmSeedOffset, warmServe)
	if err != nil {
		return err
	}
	tmp := filepath.Join(b.o.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if b.dir, err = os.MkdirTemp(tmp, "serve-"); err != nil {
		return err
	}
	b.srv, err = serve.New(serve.Config{
		DataDir:  filepath.Join(b.dir, "data"),
		StoreDir: filepath.Join(b.dir, "store"),
		Limits: serve.Limits{
			MaxRunning:       b.tenants,
			TenantMaxRunning: 1,
			TenantMaxQueued:  2,
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: b.tenants, MaxConnsPerHost: b.tenants},
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	go func() {
		defer b.wg.Done()
		b.srv.Run(ctx) // drains and closes the registry once ctx ends
	}()

	out, _, err := b.loop(warm, nil)
	if err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("warm-up: %d contracts failed", out.failed)
	}
	return nil
}

func (b *serveBench) close() {
	if b.cancel != nil {
		b.cancel()
		b.hs.Close()
		b.wg.Wait()
		b.client.CloseIdleConnections()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

func (b *serveBench) measure() (*outcome, error) {
	out, _, err := b.loop(b.jobs, nil)
	return out, err
}

// loop runs the jobs as a closed loop: each tenant's client submits its
// next job only after polling the previous one to a finished state. With
// a tracer, every job gets a span tree (submit, queue wait, run).
func (b *serveBench) loop(jobs []serveJob, t *tracer) (*outcome, []jobResult, error) {
	results := make([]jobResult, len(jobs))
	errs := make([]error, b.tenants)
	deadline := time.Now().Add(loopDeadline)
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for tenant := 0; tenant < b.tenants; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for j := tenant; j < len(jobs); j += b.tenants {
				if err := b.runJob(jobs[j].spec, &results[j], deadline); err != nil {
					errs[tenant] = fmt.Errorf("job %d: %w", j, err)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
	out := &outcome{wall: time.Since(t0), cpu: cpuTime() - cpu0, slots: b.tenants,
		note: fmt.Sprintf(" (per job, polled every %v)", pollInterval)}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}

	var digests []string
	for j, r := range results {
		out.contracts += jobs[j].spec.Contracts
		out.busy += r.end.Sub(r.ran)
		total := ms(r.end.Sub(r.start))
		if r.state.Status != serve.StatusCompleted || r.state.Failed > 0 {
			out.failed += max(r.state.Failed, 1)
			total = math.Inf(1)
		}
		out.latencies = append(out.latencies, total)
		digests = append(digests, fmt.Sprintf("# job %d\n%s", j, jobDigest(r.state)))
		for _, line := range strings.Split(r.state.FindingsDigest, "\n") {
			if line == "" {
				continue
			}
			id, got, failed, err := parseDigestLine(line)
			if err != nil {
				return nil, nil, err
			}
			if !failed && id < len(jobs[j].labels) {
				out.score.add(got, jobs[j].labels[id])
			}
		}
		if t != nil {
			root := t.record(j, 0, "job", r.start, r.end)
			t.record(j, root, "serve.submit", r.start, r.submitted)
			t.record(j, root, "serve.queue_wait", r.submitted, r.ran)
			t.record(j, root, "serve.run", r.ran, r.end)
		}
	}
	out.digest = strings.Join(digests, "\n")
	return out, results, nil
}

// jobDigest is a job's findings digest, or its error when it failed.
func jobDigest(s serve.JobState) string {
	if s.Err != "" {
		return "err=" + s.Err
	}
	return s.FindingsDigest
}

// runJob submits one spec and polls it to a finished state.
func (b *serveBench) runJob(spec serve.JobSpec, r *jobResult, deadline time.Time) error {
	r.start = time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var accepted struct {
		ID int `json:"id"`
	}
	if err := b.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &accepted); err != nil {
		return err
	}
	r.submitted = time.Now()
	for {
		if err := b.call(http.MethodGet, fmt.Sprintf("/jobs/%d", accepted.ID), nil, http.StatusOK, &r.state); err != nil {
			return err
		}
		now := time.Now()
		if r.ran.IsZero() && r.state.Status != serve.StatusQueued {
			r.ran = now
		}
		if r.state.Finished() {
			r.end = now
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("job %d still %s at the loop deadline", accepted.ID, r.state.Status)
		}
		time.Sleep(pollInterval)
	}
}

// call makes one request and decodes the JSON reply.
func (b *serveBench) call(method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, into)
}

// trace runs the jobs through the daemon with job spans (the reference),
// then every job's contracts through the layers with one worker and a
// memo backed by a fresh store, as the daemon's shared cache is.
func (b *serveBench) trace(t *tracer, l *layers) (ref, out *outcome, err error) {
	var before, after serve.StatsReport
	if err := b.call(http.MethodGet, "/stats", nil, http.StatusOK, &before); err != nil {
		return nil, nil, err
	}
	ref, results, err := b.loop(b.jobs, t)
	if err != nil {
		return nil, nil, err
	}
	if err := b.call(http.MethodGet, "/stats", nil, http.StatusOK, &after); err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		l.submitMS = append(l.submitMS, ms(r.submitted.Sub(r.start)))
		l.queueMS = append(l.queueMS, ms(r.ran.Sub(r.submitted)))
		l.runMS = append(l.runMS, ms(r.end.Sub(r.ran)))
	}
	l.wal.Appends = after.Wal.Appends - before.Wal.Appends
	l.wal.Syncs = after.Wal.Syncs - before.Wal.Syncs
	if after.Store != nil && before.Store != nil {
		l.storeWrites = after.Store.Writes - before.Store.Writes
		l.storeHits = after.Store.Hits - before.Store.Hits
	}

	runtime.GC()
	disk, err := store.Open(store.Options{Dir: filepath.Join(b.dir, "trace-store")})
	if err != nil {
		return nil, nil, err
	}
	cache := memo.New()
	cache.AttachDisk(disk)
	out = &outcome{slots: 1}
	var digests []string
	t0 := time.Now()
	err = l.profiled(func() error {
		for j, job := range b.jobs {
			cjobs, err := serve.BuildJobs(job.spec)
			if err != nil {
				return err
			}
			lines := make([]string, len(cjobs))
			for i, cj := range cjobs {
				c := contractInput{trace: len(b.jobs) + out.contracts, mod: cj.Module, abi: cj.ABI, seed: cj.Config.Seed}
				st := stages{iterations: cj.Config.Iterations, conflicts: cj.Config.SolverConflicts}
				got, err := traceContract(t, l, st, cache, c)
				lines[i] = digestLine(i, cj.Name, got, err)
				out.contracts++
				if err != nil {
					out.failed++
					continue
				}
				out.score.add(got, job.labels[i])
			}
			digests = append(digests, fmt.Sprintf("# job %d\n%s", j, findingsDigest(lines)))
		}
		return nil
	})
	out.wall = time.Since(t0)
	out.digest = strings.Join(digests, "\n")
	l.memo = cache.Snapshot()
	return ref, out, err
}
