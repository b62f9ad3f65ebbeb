// Package memo is the cross-job memoization layer of the campaign engine:
// a concurrency-safe, sharded, content-addressed cache shared by every job
// in a batch (and, in shared mode, by every batch in the process). WASAI's
// concolic loop re-solves near-identical flipped-branch constraints many
// times — within one job every coverage increase resets the attempted set,
// and across jobs template-generated contracts repeat whole constraint
// families — and re-decodes/re-analyzes identical modules across jobs and
// across journal resume. The paper (§3.4.4) parallelizes constraint
// solving because it dominates end-to-end cost; this layer removes the
// duplicated fraction of that cost outright.
//
// Five tiers, all keyed by 32-byte content hashes. The campaign engine and
// the batch facade use the solver, module and ABI tiers; only the
// benchmark's traced pass (perfbench/trace.go) calls the static and
// verdict tiers.
//
//   - solver: canonicalized query -> Sat/Unsat verdict (+ canonical model),
//     consulted by symbolic.SolvePoolCtx before DPLL. Exact (Ordered-key)
//     hits replay verdict and model; permutation (Sorted-key) hits serve
//     Unsat only. See internal/symbolic/canon.go for why this preserves
//     byte-identical campaign digests.
//   - module: bytecode hash -> decoded+validated *wasm.Module.
//   - ABI: ABI JSON hash -> parsed *abi.ABI (no counters of its own).
//   - static: module content hash -> *static.Report (nil-report sentinel
//     for modules whose analysis failed, so failures are not re-analyzed).
//   - verdict: module content hash + ABI action list -> *absint.Report,
//     the abstract-interpretation three-valued verdicts (a pure function
//     of module bytes and action names).
//
// Determinism contract: with any Mode, at any worker count, campaign
// FindingsDigest and StateDigest are byte-identical to a memo-off run.
// The cache can change only how much work is done, never its outcome:
// verdicts are semantic properties of the canonical query, modules and
// reports are pure functions of the bytes, Unknown is never cached, and
// fault-injected attempts bypass the cache entirely (enforced in
// symbolic.SolvePoolCtx and internal/campaign). Hit/miss/eviction
// counters are the one explicitly nondeterministic surface: concurrent
// workers can miss on the same key simultaneously, so counts may vary by
// ±worker-count across runs. They feed reports only, never digests.
//
// Eviction is per-shard FIFO with a fixed capacity: the oldest entry in
// the shard is dropped when a new key arrives at a full shard. Evicting
// never changes results — a dropped entry only means the work is done
// again on the next encounter.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/static"
	"repro/internal/static/absint"
	"repro/internal/store"
	"repro/internal/symbolic"
	"repro/internal/wasm"
)

// Mode selects the cache scope for a campaign.
type Mode string

// Cache scopes. Off disables memoization; On gives the campaign a fresh
// private cache; Shared uses one process-wide cache across campaigns
// (batches of batches, e.g. bench experiments or resumed runs).
const (
	ModeOff    Mode = "off"
	ModeOn     Mode = "on"
	ModeShared Mode = "shared"
)

// ParseMode parses a Mode ("" means off).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeOff:
		return ModeOff, nil
	case ModeOn:
		return ModeOn, nil
	case ModeShared:
		return ModeShared, nil
	default:
		//wasai:rawerr flag-validation error surfaced to the CLI, never reaches the failure classifier
		return ModeOff, fmt.Errorf("memo: unknown mode %q (want off, on or shared)", s)
	}
}

// ForMode returns the cache a campaign with this mode should use: nil for
// off, a fresh cache for on, the process-wide cache for shared.
func ForMode(m Mode) *Cache {
	switch m {
	case ModeOn:
		return New()
	case ModeShared:
		return Shared()
	default:
		return nil
	}
}

var (
	sharedOnce sync.Once
	shared     *Cache
)

// Shared returns the process-wide cache (created on first use).
func Shared() *Cache {
	sharedOnce.Do(func() { shared = New() })
	return shared
}

var (
	sharedDiskMu sync.Mutex
	//wasai:localcache registry of shared caches by disk store, not a data cache
	sharedDisk = map[*store.Store]*Cache{}
)

// SharedWithDisk returns the process-wide cache bound to the given disk
// store (created on first use, one cache per store). The plain Shared()
// cache never gains a disk tier: attaching one there would be a global
// side effect — later Memo="shared" campaigns without a StoreDir would
// silently keep using the disk, and a campaign with a different StoreDir
// would swap the shared cache's durable tier under everyone. Keying by
// store (store.OpenShared already dedupes handles by directory) keeps
// "shared" semantics among campaigns that share a directory and full
// isolation from everything else. A nil store is the plain Shared cache.
func SharedWithDisk(d *store.Store) *Cache {
	if d == nil {
		return Shared()
	}
	sharedDiskMu.Lock()
	defer sharedDiskMu.Unlock()
	c, ok := sharedDisk[d]
	if !ok {
		c = New()
		c.AttachDisk(d)
		sharedDisk[d] = c
	}
	return c
}

// Stats are cumulative cache counters. Counters are reporting-only: they
// never influence analysis results (see the package comment for why hit
// counts are not perfectly worker-count invariant).
type Stats struct {
	SolverHits      int64 // Ordered-key verdict replays
	SolverUnsatHits int64 // Sorted-key Unsat replays
	SolverMisses    int64
	SolverEvictions int64
	ModuleHits      int64
	ModuleMisses    int64
	StaticHits      int64
	StaticMisses    int64
	VerdictHits     int64
	VerdictMisses   int64
	// Disk-tier counters (zero unless a store is attached). StoreHits
	// counts lookups the memory tiers missed but the disk store answered;
	// StoreMisses and StoreCorrupt mirror the attached store's own
	// counters (corrupt reads degrade to misses, never to answers).
	StoreHits    int64
	StoreMisses  int64
	StoreCorrupt int64
}

// Sub returns s - prev, the delta between two snapshots (per-campaign
// accounting against a shared cache).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		SolverHits:      s.SolverHits - prev.SolverHits,
		SolverUnsatHits: s.SolverUnsatHits - prev.SolverUnsatHits,
		SolverMisses:    s.SolverMisses - prev.SolverMisses,
		SolverEvictions: s.SolverEvictions - prev.SolverEvictions,
		ModuleHits:      s.ModuleHits - prev.ModuleHits,
		ModuleMisses:    s.ModuleMisses - prev.ModuleMisses,
		StaticHits:      s.StaticHits - prev.StaticHits,
		StaticMisses:    s.StaticMisses - prev.StaticMisses,
		VerdictHits:     s.VerdictHits - prev.VerdictHits,
		VerdictMisses:   s.VerdictMisses - prev.VerdictMisses,
		StoreHits:       s.StoreHits - prev.StoreHits,
		StoreMisses:     s.StoreMisses - prev.StoreMisses,
		StoreCorrupt:    s.StoreCorrupt - prev.StoreCorrupt,
	}
}

// Hits sums hit counters across tiers (disk-store hits included: they
// saved the same recomputation a memory hit would have).
func (s Stats) Hits() int64 {
	return s.SolverHits + s.SolverUnsatHits + s.ModuleHits + s.StaticHits + s.VerdictHits + s.StoreHits
}

// Misses sums miss counters across tiers.
func (s Stats) Misses() int64 {
	return s.SolverMisses + s.ModuleMisses + s.StaticMisses + s.VerdictMisses
}

// HitRate is Hits / (Hits + Misses), 0 when the cache was never consulted.
func (s Stats) HitRate() float64 {
	total := s.Hits() + s.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// String renders the counters in the campaign-report style. The disk
// tier is appended only when it saw traffic, so store-less runs render
// exactly as before.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"solver hits=%d (unsat-perm %d) misses=%d evictions=%d | module hits=%d misses=%d | static hits=%d misses=%d | verdict hits=%d misses=%d | hit rate %.1f%%",
		s.SolverHits+s.SolverUnsatHits, s.SolverUnsatHits, s.SolverMisses, s.SolverEvictions,
		s.ModuleHits, s.ModuleMisses, s.StaticHits, s.StaticMisses, s.VerdictHits, s.VerdictMisses, 100*s.HitRate())
	if s.StoreHits != 0 || s.StoreMisses != 0 || s.StoreCorrupt != 0 {
		out += fmt.Sprintf(" | disk hits=%d misses=%d corrupt=%d", s.StoreHits, s.StoreMisses, s.StoreCorrupt)
	}
	return out
}

// DefaultShardCap bounds each of the 16 shards of each tier; the
// per-tier capacity is 16 × DefaultShardCap entries.
const DefaultShardCap = 4096

// Cache is the four-tier memoization store. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and nil-safe (a nil *Cache behaves as memoization-off), so call sites
// need no guards.
type Cache struct {
	solver   sharded[symbolic.SolverVerdict] // Ordered key -> verdict
	unsat    sharded[struct{}]               // Sorted key -> (Unsat)
	modules  sharded[*wasm.Module]           // bytecode hash -> module
	abis     sharded[*abi.ABI]               // ABI JSON hash -> ABI
	reports  sharded[*static.Report]         // bytecode hash -> report (nil = analyze failed)
	verdicts sharded[*absint.Report]         // bytecode+actions hash -> verdict report

	// moduleKeys remembers the content hash of the modules in the module
	// tier, so the static and verdict tiers can key reports without
	// re-encoding. A module leaves the index when it leaves the tier.
	//wasai:localcache side index into the cache's own tiers, not an independent cache
	moduleKeys sync.Map // *wasm.Module -> [32]byte

	// disk is the optional third tier (see AttachDisk): a durable,
	// cross-process store consulted after a memory miss on the solver and
	// unsat tiers, and written through on Store.
	disk atomic.Pointer[store.Store]

	solverHits      atomic.Int64
	solverUnsatHits atomic.Int64
	solverMisses    atomic.Int64
	moduleHits      atomic.Int64
	moduleMisses    atomic.Int64
	staticHits      atomic.Int64
	staticMisses    atomic.Int64
	verdictHits     atomic.Int64
	verdictMisses   atomic.Int64
	storeHits       atomic.Int64
}

// New returns an empty cache with default capacities.
func New() *Cache {
	c := &Cache{}
	c.solver.init(DefaultShardCap)
	c.unsat.init(DefaultShardCap)
	c.modules.init(DefaultShardCap / 16) // modules are big; keep fewer
	c.abis.init(DefaultShardCap / 16)
	c.reports.init(DefaultShardCap / 16)
	c.verdicts.init(DefaultShardCap / 16)
	return c
}

// Disk-tier names inside the attached store. Only solver verdicts
// persist: they are small, binary-stable (see encodeVerdict) and are
// what dominates recomputation cost; module/static/verdict tiers hold
// heavyweight pointers whose decode cost is already amortized in memory.
const (
	diskTierSolver = "solver" // Ordered key -> encodeVerdict payload
	diskTierUnsat  = "unsat"  // Sorted key -> empty payload (Unsat marker)
)

// AttachDisk plugs a durable store under the solver tiers: memory misses
// consult it, and Sat/Unsat verdicts are written through so other
// processes (and future runs) start warm. Attaching nil detaches.
// Safe to call concurrently with lookups; pass the same *store.Store
// (e.g. store.OpenShared) to every cache sharing a directory.
func (c *Cache) AttachDisk(d *store.Store) {
	if c == nil {
		return
	}
	c.disk.Store(d)
}

// Disk returns the attached store, if any.
func (c *Cache) Disk() *store.Store {
	if c == nil {
		return nil
	}
	return c.disk.Load()
}

// SolverMemo adapts c to the solver pool's cache interface, returning a
// nil interface (not a typed-nil) when c is nil so the pool's nil check
// stays meaningful.
func (c *Cache) SolverMemo() symbolic.SolverMemo {
	if c == nil {
		return nil
	}
	return c
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	var ds store.Stats
	if d := c.disk.Load(); d != nil {
		ds = d.Stats()
	}
	return Stats{
		StoreHits:       c.storeHits.Load(),
		StoreMisses:     ds.Misses,
		StoreCorrupt:    ds.Corrupt,
		SolverHits:      c.solverHits.Load(),
		SolverUnsatHits: c.solverUnsatHits.Load(),
		SolverMisses:    c.solverMisses.Load(),
		SolverEvictions: c.solver.evictions.Load() + c.unsat.evictions.Load() + c.modules.evictions.Load() + c.reports.evictions.Load() + c.verdicts.evictions.Load(),
		ModuleHits:      c.moduleHits.Load(),
		ModuleMisses:    c.moduleMisses.Load(),
		StaticHits:      c.staticHits.Load(),
		StaticMisses:    c.staticMisses.Load(),
		VerdictHits:     c.verdictHits.Load(),
		VerdictMisses:   c.verdictMisses.Load(),
	}
}

// --- solver tier (implements symbolic.SolverMemo) ---------------------------

// Lookup serves a memoized verdict: exact (Ordered-key) hits replay
// verdict and model; Sorted-key hits replay Unsat only.
func (c *Cache) Lookup(q symbolic.Canon) (symbolic.SolverVerdict, bool) {
	if c == nil {
		return symbolic.SolverVerdict{}, false
	}
	if v, ok := c.solver.get(q.Ordered); ok {
		c.solverHits.Add(1)
		return v, true
	}
	if _, ok := c.unsat.get(q.Sorted); ok {
		c.solverUnsatHits.Add(1)
		return symbolic.SolverVerdict{Result: symbolic.Unsat}, true
	}
	if d := c.disk.Load(); d != nil {
		if raw, ok := d.Get(diskTierSolver, q.Ordered); ok {
			if v, ok := decodeVerdict(raw); ok {
				// Promote into the memory tiers so the next lookup skips disk.
				c.solver.put(q.Ordered, v)
				if v.Result == symbolic.Unsat {
					c.unsat.put(q.Sorted, struct{}{})
				}
				c.storeHits.Add(1)
				return v, true
			}
			// CRC-valid but semantically undecodable payload (foreign
			// writer): fall through to a plain miss; never guess a verdict.
		}
		if _, ok := d.Get(diskTierUnsat, q.Sorted); ok {
			c.unsat.put(q.Sorted, struct{}{})
			c.storeHits.Add(1)
			return symbolic.SolverVerdict{Result: symbolic.Unsat}, true
		}
	}
	c.solverMisses.Add(1)
	return symbolic.SolverVerdict{}, false
}

// Store records a Sat or Unsat verdict; Unknown is dropped (it reflects
// the budget and cancellation timing, not the query).
func (c *Cache) Store(q symbolic.Canon, v symbolic.SolverVerdict) {
	if c == nil {
		return
	}
	d := c.disk.Load()
	switch v.Result {
	case symbolic.Sat:
		c.solver.put(q.Ordered, v)
		d.Put(diskTierSolver, q.Ordered, encodeVerdict(v))
	case symbolic.Unsat:
		c.solver.put(q.Ordered, v)
		c.unsat.put(q.Sorted, struct{}{})
		d.Put(diskTierSolver, q.Ordered, encodeVerdict(v))
		d.Put(diskTierUnsat, q.Sorted, nil)
	}
}

// encodeVerdict frames a solver verdict for the disk tier: one result
// byte, then each model value as 8 little-endian bytes. Binary, not
// JSON: model values are full-range uint64s and must round-trip exactly
// (digest identity) — JSON numbers would lose precision past 2^53.
func encodeVerdict(v symbolic.SolverVerdict) []byte {
	out := make([]byte, 1+8*len(v.Vals))
	out[0] = byte(v.Result)
	for i, val := range v.Vals {
		binary.LittleEndian.PutUint64(out[1+8*i:], val)
	}
	return out
}

// decodeVerdict is the inverse; it rejects shapes encodeVerdict cannot
// produce (Unknown results, ragged lengths) so a foreign or stale
// payload degrades to a miss.
func decodeVerdict(raw []byte) (symbolic.SolverVerdict, bool) {
	if len(raw) < 1 || (len(raw)-1)%8 != 0 {
		return symbolic.SolverVerdict{}, false
	}
	res := symbolic.Result(raw[0])
	if res != symbolic.Sat && res != symbolic.Unsat {
		return symbolic.SolverVerdict{}, false
	}
	v := symbolic.SolverVerdict{Result: res}
	if n := (len(raw) - 1) / 8; n > 0 {
		v.Vals = make([]uint64, n)
		for i := range v.Vals {
			v.Vals[i] = binary.LittleEndian.Uint64(raw[1+8*i:])
		}
	}
	return v, true
}

// --- module tier ------------------------------------------------------------

// Module returns the decoded module for bin, calling decode on first
// encounter of these bytes. Only successful decodes are cached; decode
// must be pure (wasm.Decode+Validate is).
func (c *Cache) Module(bin []byte, decode func([]byte) (*wasm.Module, error)) (*wasm.Module, error) {
	if c == nil {
		return decode(bin)
	}
	key := sha256.Sum256(bin)
	if m, ok := c.modules.get(key); ok {
		c.moduleHits.Add(1)
		return m, nil
	}
	c.moduleMisses.Add(1)
	m, err := decode(bin)
	if err != nil {
		return nil, err
	}
	// Index m before it enters the tier, so the put that later evicts it
	// finds an entry to delete.
	c.moduleKeys.Store(m, key)
	if old, ok := c.modules.put(key, m); ok {
		c.moduleKeys.Delete(old)
	}
	return m, nil
}

// --- ABI tier ---------------------------------------------------------------

// ABI returns the parsed ABI for raw, calling parse on first encounter of
// these bytes, so the jobs of a batch that carry content-identical ABI
// JSON share one value, and with it the campaign chain and scenario
// outcome their artifact keeps per ABI. Only successful parses are
// cached; parse must be pure, and no caller writes to a parsed ABI.
func (c *Cache) ABI(raw []byte, parse func([]byte) (*abi.ABI, error)) (*abi.ABI, error) {
	if c == nil {
		return parse(raw)
	}
	key := sha256.Sum256(raw)
	if a, ok := c.abis.get(key); ok {
		return a, nil
	}
	a, err := parse(raw)
	if err != nil {
		return nil, err
	}
	c.abis.put(key, a)
	return a, nil
}

// --- static tier ------------------------------------------------------------

// Static returns the static report for m, calling analyze on first
// encounter of the module's content. A failed analysis is cached as a
// nil report and replayed as (nil, nil) — callers already treat a nil
// report as "no static information". The campaign engine does not call it;
// the benchmark's traced pass in perfbench/trace.go does.
func (c *Cache) Static(m *wasm.Module, analyze func(*wasm.Module) (*static.Report, error)) (*static.Report, error) {
	if c == nil {
		rep, err := analyze(m)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
	key, ok := c.moduleKey(m)
	if !ok {
		// Module content not hashable (encode failed): analyze uncached.
		rep, err := analyze(m)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
	if rep, ok := c.reports.get(key); ok {
		c.staticHits.Add(1)
		return rep, nil
	}
	c.staticMisses.Add(1)
	rep, err := analyze(m)
	if err != nil {
		c.reports.put(key, nil)
		return nil, err
	}
	c.reports.put(key, rep)
	return rep, nil
}

// --- verdict tier -----------------------------------------------------------

// Verdict returns the abstract-interpretation verdict report for m under
// the given ABI action list, calling analyze on first encounter of the
// (module content, actions) pair. absint.Analyze is a pure deterministic
// function of exactly those inputs (the absint determinism test pins it),
// so replaying a cached report is indistinguishable from re-analyzing. The
// campaign engine does not call it; the benchmark's traced pass in
// perfbench/trace.go does.
func (c *Cache) Verdict(m *wasm.Module, actions []eos.Name, analyze func(*wasm.Module, []eos.Name) *absint.Report) *absint.Report {
	if c == nil {
		return analyze(m, actions)
	}
	mkey, ok := c.moduleKey(m)
	if !ok {
		return analyze(m, actions)
	}
	h := sha256.New()
	h.Write(mkey[:])
	var buf [8]byte
	for _, a := range actions {
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		h.Write(buf[:])
	}
	var key [32]byte
	h.Sum(key[:0])
	if rep, ok := c.verdicts.get(key); ok {
		c.verdictHits.Add(1)
		return rep
	}
	c.verdictMisses.Add(1)
	rep := analyze(m, actions)
	c.verdicts.put(key, rep)
	return rep
}

// moduleKey returns m's content hash: the indexed one for a module in the
// module tier, else the hash of its encoding, which is not indexed.
func (c *Cache) moduleKey(m *wasm.Module) ([32]byte, bool) {
	if k, ok := c.moduleKeys.Load(m); ok {
		return k.([32]byte), true
	}
	bin, err := wasm.Encode(m)
	if err != nil {
		return [32]byte{}, false
	}
	return sha256.Sum256(bin), true
}

// --- sharded store ----------------------------------------------------------

const numShards = 16

// sharded is a 16-way sharded map keyed by 32-byte content hashes with
// per-shard FIFO eviction. Sharding keeps lock hold times short under
// the solver pool's concurrency; the shard index is the key's first
// byte's low nibble (uniform, since keys are SHA-256 output).
type sharded[V any] struct {
	shards    [numShards]shard[V]
	capacity  int
	evictions atomic.Int64
}

type shard[V any] struct {
	mu sync.Mutex
	//wasai:localcache shard storage of internal/memo itself
	m     map[[32]byte]V
	order [][32]byte // insertion order; order[head:] are live
	head  int
}

func (s *sharded[V]) init(capPerShard int) {
	s.capacity = capPerShard
	for i := range s.shards {
		s.shards[i].m = map[[32]byte]V{}
	}
}

func (s *sharded[V]) get(key [32]byte) (V, bool) {
	sh := &s.shards[key[0]&(numShards-1)]
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

// put stores v under key and returns the value it displaced from the
// tier, if any: the key's previous value, or the shard's oldest entry.
func (s *sharded[V]) put(key [32]byte, v V) (old V, displaced bool) {
	sh := &s.shards[key[0]&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.m[key]; ok {
		// Refresh in place, keeping the FIFO position: concurrent misses
		// on one key store equivalent values, so first-in wins is fine.
		sh.m[key] = v
		return prev, true
	}
	if len(sh.m) >= s.capacity {
		oldest := sh.order[sh.head]
		old, displaced = sh.m[oldest], true
		delete(sh.m, oldest)
		sh.head++
		s.evictions.Add(1)
		// Compact the consumed prefix once it dominates the slice.
		if sh.head > 64 && sh.head*2 > len(sh.order) {
			sh.order = append(sh.order[:0], sh.order[sh.head:]...)
			sh.head = 0
		}
	}
	sh.m[key] = v
	sh.order = append(sh.order, key)
	return old, displaced
}
