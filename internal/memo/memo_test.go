package memo

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/static"
	"repro/internal/static/absint"
	"repro/internal/store"
	"repro/internal/symbolic"
	"repro/internal/wasm"
)

func key(shardByte byte, n int) [32]byte {
	var k [32]byte
	k[0] = shardByte
	k[1] = byte(n)
	k[2] = byte(n >> 8)
	return k
}

func TestShardedFIFOEviction(t *testing.T) {
	var s sharded[int]
	s.init(4)
	// Five inserts into one shard (same low nibble): the first key out.
	for i := 0; i < 5; i++ {
		s.put(key(0, i), i)
	}
	if _, ok := s.get(key(0, 0)); ok {
		t.Error("oldest entry survived past capacity")
	}
	for i := 1; i < 5; i++ {
		if v, ok := s.get(key(0, i)); !ok || v != i {
			t.Errorf("entry %d missing after eviction of older key", i)
		}
	}
	if got := s.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Re-putting an existing key refreshes in place without eviction.
	s.put(key(0, 1), 100)
	if v, _ := s.get(key(0, 1)); v != 100 {
		t.Error("refresh did not update the value")
	}
	if got := s.evictions.Load(); got != 1 {
		t.Errorf("refresh evicted: evictions = %d, want 1", got)
	}
}

func TestShardedShardIndependence(t *testing.T) {
	var s sharded[int]
	s.init(1)
	// One entry per shard: no shard evicts another's key.
	for b := 0; b < numShards; b++ {
		s.put(key(byte(b), 0), b)
	}
	for b := 0; b < numShards; b++ {
		if v, ok := s.get(key(byte(b), 0)); !ok || v != b {
			t.Errorf("shard %d lost its entry", b)
		}
	}
	if got := s.evictions.Load(); got != 0 {
		t.Errorf("evictions = %d, want 0", got)
	}
}

func TestShardedCompaction(t *testing.T) {
	var s sharded[int]
	s.init(8)
	// Far more inserts than capacity on one shard: the order slice must
	// not grow without bound (compaction) and the live set stays at cap.
	for i := 0; i < 1000; i++ {
		s.put(key(3, i), i)
	}
	sh := &s.shards[3]
	if len(sh.m) != 8 {
		t.Errorf("live entries = %d, want 8", len(sh.m))
	}
	if len(sh.order)-sh.head > 8+64 {
		t.Errorf("order slice not compacted: len=%d head=%d", len(sh.order), sh.head)
	}
	// The newest 8 keys are exactly the survivors.
	for i := 992; i < 1000; i++ {
		if _, ok := s.get(key(3, i)); !ok {
			t.Errorf("newest key %d missing", i)
		}
	}
}

func TestShardedConcurrency(t *testing.T) {
	var s sharded[int]
	s.init(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.put(key(byte(i%numShards), i), i)
				s.get(key(byte((i+g)%numShards), i))
			}
		}(g)
	}
	wg.Wait() // -race is the assertion here
}

func TestSolverTierVerdicts(t *testing.T) {
	c := New()
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 32)
	sat := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(4, 32))}, 0)
	uns := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(0, 32)), ctx.Eq(x, ctx.Const(1, 32))}, 0)

	if _, ok := c.Lookup(sat); ok {
		t.Fatal("hit on empty cache")
	}
	c.Store(sat, symbolic.VerdictOf(sat, symbolic.Model{"x": 4}, symbolic.Sat))
	c.Store(uns, symbolic.VerdictOf(uns, nil, symbolic.Unsat))
	c.Store(sat, symbolic.SolverVerdict{Result: symbolic.Unknown}) // must be dropped

	v, ok := c.Lookup(sat)
	if !ok || v.Result != symbolic.Sat || v.ModelFor(sat)["x"] != 4 {
		t.Fatalf("Sat replay wrong: ok=%v v=%+v", ok, v)
	}
	if v, ok := c.Lookup(uns); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("Unsat replay wrong: ok=%v v=%+v", ok, v)
	}

	// A clause-permuted variant of the Unsat query misses the Ordered key
	// but hits the Sorted tier — and only for Unsat.
	perm := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(1, 32)), ctx.Eq(x, ctx.Const(0, 32))}, 0)
	if perm.Ordered == uns.Ordered {
		t.Fatal("test premise broken: permutation shares the Ordered key")
	}
	if v, ok := c.Lookup(perm); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("Sorted-key Unsat replay failed: ok=%v v=%+v", ok, v)
	}

	st := c.Snapshot()
	if st.SolverHits != 2 || st.SolverUnsatHits != 1 {
		t.Errorf("counters: %+v", st)
	}
}

func TestUnknownNeverStored(t *testing.T) {
	c := New()
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)
	c.Store(q, symbolic.SolverVerdict{Result: symbolic.Unknown})
	if _, ok := c.Lookup(q); ok {
		t.Fatal("Unknown verdict was cached")
	}
}

func testModuleBytes(t *testing.T) []byte {
	t.Helper()
	c, err := contractgen.Generate(contractgen.Spec{Class: contractgen.ClassFakeEOS, Vulnerable: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := wasm.Encode(c.Module)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestModuleTier(t *testing.T) {
	c := New()
	bin := testModuleBytes(t)
	calls := 0
	decode := func(b []byte) (*wasm.Module, error) {
		calls++
		return wasm.Decode(b)
	}
	m1, err := c.Module(bin, decode)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Module(bin, decode)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("decode ran %d times, want 1", calls)
	}
	if m1 != m2 {
		t.Error("cached module is not the same instance")
	}
	// Failed decodes are not cached.
	failCalls := 0
	fail := func(b []byte) (*wasm.Module, error) { failCalls++; return nil, errors.New("boom") }
	if _, err := c.Module([]byte("junk"), fail); err == nil {
		t.Fatal("decode error swallowed")
	}
	if _, err := c.Module([]byte("junk"), fail); err == nil {
		t.Fatal("decode error swallowed on second call")
	}
	if failCalls != 2 {
		t.Errorf("failed decode was cached: %d calls, want 2", failCalls)
	}
	st := c.Snapshot()
	if st.ModuleHits != 1 || st.ModuleMisses != 3 {
		t.Errorf("module counters: %+v", st)
	}
}

// TestModuleKeysStayWithinTier: the side index that keys the static and
// verdict tiers holds exactly the modules of the module tier. Four
// goroutines each decoding three tiers' worth of distinct binaries evict
// two thirds of them and race on every key, and the displaced modules'
// index entries go with them; keying modules the tier never decoded
// indexes nothing. Run it under -race.
func TestModuleKeysStayWithinTier(t *testing.T) {
	c := New()
	capacity := numShards * c.modules.capacity
	decode := func([]byte) (*wasm.Module, error) { return &wasm.Module{}, nil }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*capacity; i++ {
				if _, err := c.Module([]byte(fmt.Sprintf("binary-%d", i)), decode); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	analyze := func(*wasm.Module, []eos.Name) *absint.Report { return &absint.Report{} }
	for i := 0; i < 100; i++ {
		c.Verdict(&wasm.Module{}, nil, analyze)
	}
	indexed, outside := 0, 0
	c.moduleKeys.Range(func(k, v any) bool {
		indexed++
		if m, ok := c.modules.get(v.([32]byte)); !ok || m != k.(*wasm.Module) {
			outside++
		}
		return true
	})
	if indexed != capacity || outside != 0 {
		t.Errorf("%d modules indexed, %d of them outside the tier; want the tier's %d", indexed, outside, capacity)
	}
}

func TestStaticTier(t *testing.T) {
	c := New()
	bin := testModuleBytes(t)
	m, err := c.Module(bin, wasm.Decode)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	analyze := func(mod *wasm.Module) (*static.Report, error) {
		calls++
		return static.Analyze(mod)
	}
	r1, err := c.Static(m, analyze)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Static(m, analyze)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("analyze ran %d times, want 1", calls)
	}
	if r1 != r2 {
		t.Error("cached report is not the same instance")
	}
	// A second decode of the same bytes returns the cached module pointer,
	// so its report is shared too.
	m2, err := c.Module(bin, wasm.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Static(m2, analyze); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("analyze re-ran for a cached module: %d calls", calls)
	}
	// Failed analyses are cached as nil and replayed as (nil, nil).
	failCalls := 0
	failing := func(mod *wasm.Module) (*static.Report, error) { failCalls++; return nil, errors.New("nope") }
	cf := New()
	mf, err := cf.Module(bin, wasm.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Static(mf, failing); err == nil {
		t.Fatal("analyze error swallowed")
	}
	rep, err := cf.Static(mf, failing)
	if err != nil || rep != nil {
		t.Fatalf("cached failure not replayed as (nil, nil): rep=%v err=%v", rep, err)
	}
	if failCalls != 1 {
		t.Errorf("failed analysis re-ran: %d calls, want 1", failCalls)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if c.SolverMemo() != nil {
		t.Error("nil cache's SolverMemo is not a nil interface")
	}
	if st := c.Snapshot(); st != (Stats{}) {
		t.Errorf("nil snapshot: %+v", st)
	}
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)
	if _, ok := c.Lookup(q); ok {
		t.Error("nil cache hit")
	}
	c.Store(q, symbolic.SolverVerdict{Result: symbolic.Sat})
	bin := testModuleBytes(t)
	if _, err := c.Module(bin, wasm.Decode); err != nil {
		t.Errorf("nil cache Module: %v", err)
	}
	m, _ := wasm.Decode(bin)
	if _, err := c.Static(m, static.Analyze); err != nil {
		t.Errorf("nil cache Static: %v", err)
	}
}

func TestParseModeForMode(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeOff, "off": ModeOff, "on": ModeOn, "shared": ModeShared} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
	if ForMode(ModeOff) != nil {
		t.Error("ForMode(off) != nil")
	}
	a, b := ForMode(ModeOn), ForMode(ModeOn)
	if a == nil || a == b {
		t.Error("ForMode(on) must return fresh private caches")
	}
	s1, s2 := ForMode(ModeShared), ForMode(ModeShared)
	if s1 == nil || s1 != s2 {
		t.Error("ForMode(shared) must return the process singleton")
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{SolverHits: 10, SolverMisses: 4, ModuleHits: 2, StaticMisses: 1}
	b := Stats{SolverHits: 4, SolverMisses: 1}
	d := a.Sub(b)
	if d.SolverHits != 6 || d.SolverMisses != 3 || d.ModuleHits != 2 || d.StaticMisses != 1 {
		t.Errorf("Sub: %+v", d)
	}
	if got := a.Hits(); got != 12 {
		t.Errorf("Hits = %d, want 12", got)
	}
	if got := a.Misses(); got != 5 {
		t.Errorf("Misses = %d, want 5", got)
	}
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("empty HitRate = %v, want 0", r)
	}
	if s := fmt.Sprint(a); s == "" {
		t.Error("empty String")
	}
}

func TestVerdictTier(t *testing.T) {
	c := New()
	bin := testModuleBytes(t)
	m, err := c.Module(bin, wasm.Decode)
	if err != nil {
		t.Fatal(err)
	}
	actions := []eos.Name{eos.MustName("sweep"), eos.MustName("reveal")}
	calls := 0
	analyze := func(mod *wasm.Module, acts []eos.Name) *absint.Report {
		calls++
		return absint.Analyze(mod, acts)
	}
	r1 := c.Verdict(m, actions, analyze)
	r2 := c.Verdict(m, actions, analyze)
	if calls != 1 {
		t.Errorf("analyze ran %d times, want 1", calls)
	}
	if r1 != r2 {
		t.Error("cached verdict report is not the same instance")
	}
	// A different action list is a different key: the report must not be
	// shared, since MissAuth quantifies over the ABI's actions.
	_ = c.Verdict(m, []eos.Name{eos.MustName("sweep")}, analyze)
	if calls != 2 {
		t.Errorf("distinct action list served from cache: %d calls, want 2", calls)
	}
	// Content-identical module decoded again shares the cached report.
	m2, err := c.Module(bin, wasm.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if r3 := c.Verdict(m2, actions, analyze); r3 != r1 {
		t.Error("content-identical module did not share the cached report")
	}
	if calls != 2 {
		t.Errorf("cached module re-analyzed: %d calls, want 2", calls)
	}
	st := c.Snapshot()
	if st.VerdictHits != 2 || st.VerdictMisses != 2 {
		t.Errorf("verdict counters hits=%d misses=%d, want 2/2", st.VerdictHits, st.VerdictMisses)
	}
	// Nil cache: pass-through.
	var nc *Cache
	if rep := nc.Verdict(m, actions, analyze); rep == nil {
		t.Error("nil cache Verdict returned nil report")
	}
	if calls != 3 {
		t.Errorf("nil cache did not call analyze: %d calls, want 3", calls)
	}
}

// --- disk tier --------------------------------------------------------------

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	d, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// entryPath mirrors the store's on-disk layout so tests can corrupt
// entries without exporting internals.
func entryPath(dir, tier string, k symbolic.CanonKey) string {
	h := hex.EncodeToString(k[:])
	return filepath.Join(dir, tier, h[:2], h+".v1")
}

func TestDiskTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 32)
	sat := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(4, 32))}, 0)
	uns := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(0, 32)), ctx.Eq(x, ctx.Const(1, 32))}, 0)

	// First process: solve and write through.
	c1 := New()
	c1.AttachDisk(openTestStore(t, dir))
	want := symbolic.VerdictOf(sat, symbolic.Model{"x": 4}, symbolic.Sat)
	c1.Store(sat, want)
	c1.Store(uns, symbolic.VerdictOf(uns, nil, symbolic.Unsat))

	// Second process: cold memory, warm disk.
	c2 := New()
	c2.AttachDisk(openTestStore(t, dir))
	v, ok := c2.Lookup(sat)
	if !ok || v.Result != symbolic.Sat || v.ModelFor(sat)["x"] != 4 {
		t.Fatalf("disk Sat replay wrong: ok=%v v=%+v", ok, v)
	}
	if v, ok := c2.Lookup(uns); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("disk Unsat replay wrong: ok=%v v=%+v", ok, v)
	}
	// A clause permutation misses the Ordered disk entry but hits the
	// Sorted unsat marker, exactly like the memory tiers.
	perm := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(1, 32)), ctx.Eq(x, ctx.Const(0, 32))}, 0)
	c3 := New()
	c3.AttachDisk(openTestStore(t, dir))
	if v, ok := c3.Lookup(perm); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("disk Sorted-key Unsat replay failed: ok=%v v=%+v", ok, v)
	}
	if st := c3.Snapshot(); st.StoreHits != 1 {
		t.Errorf("StoreHits = %d, want 1; stats %+v", st.StoreHits, st)
	}
	// Promotion: the second lookup on c2 must be a memory hit, not disk.
	before := c2.Snapshot()
	if _, ok := c2.Lookup(sat); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	after := c2.Snapshot()
	if after.StoreHits != before.StoreHits || after.SolverHits != before.SolverHits+1 {
		t.Errorf("promotion failed: before %+v after %+v", before, after)
	}
}

// TestDiskTierBitFlipNeverPoisons is the integrity satellite at the memo
// level: every single-bit flip of a stored verdict file must degrade to
// a counted miss — the cache must never replay a damaged verdict.
func TestDiskTierBitFlipNeverPoisons(t *testing.T) {
	dir := t.TempDir()
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 32)
	sat := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(4, 32))}, 0)

	seed := New()
	seed.AttachDisk(openTestStore(t, dir))
	seed.Store(sat, symbolic.VerdictOf(sat, symbolic.Model{"x": 4}, symbolic.Sat))
	path := entryPath(dir, "solver", sat.Ordered)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flips := 0
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			corrupted := append([]byte{}, data...)
			corrupted[off] ^= 1 << bit
			if err := os.WriteFile(path, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			c := New() // cold memory every time: the disk entry is the only source
			c.AttachDisk(openTestStore(t, dir))
			if v, ok := c.Lookup(sat); ok {
				t.Fatalf("bit %d of byte %d flipped and the cache still served %+v", bit, off, v)
			}
			st := c.Snapshot()
			if st.StoreCorrupt != 1 || st.SolverMisses != 1 {
				t.Fatalf("flip at byte %d bit %d: corrupt=%d misses=%d, want 1/1",
					off, bit, st.StoreCorrupt, st.SolverMisses)
			}
			flips++
		}
	}
	if flips != len(data)*8 {
		t.Fatalf("exercised %d flips, want %d", flips, len(data)*8)
	}
}

// TestDiskTierRejectsForeignPayload: a CRC-valid entry whose payload is
// not a verdict encoding (wrong writer, wrong tier semantics) is a miss,
// never a guessed verdict.
func TestDiskTierRejectsForeignPayload(t *testing.T) {
	dir := t.TempDir()
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)

	d := openTestStore(t, dir)
	for _, payload := range [][]byte{
		{},                         // empty: no result byte
		{byte(symbolic.Unknown)},   // Unknown is never a valid stored verdict
		{99},                       // result byte out of range
		{byte(symbolic.Sat), 1, 2}, // ragged model bytes
	} {
		d.Put("solver", q.Ordered, payload)
		c := New()
		c.AttachDisk(d)
		if v, ok := c.Lookup(q); ok {
			t.Fatalf("foreign payload %v served verdict %+v", payload, v)
		}
		os.Remove(entryPath(dir, "solver", q.Ordered))
		// Reset the content-addressed skip-if-present index for the next shape.
		d = openTestStore(t, dir)
	}
}

func TestAttachDiskNilSafe(t *testing.T) {
	var c *Cache
	c.AttachDisk(nil) // must not panic
	if c.Disk() != nil {
		t.Fatal("nil cache reported a disk store")
	}
	c2 := New()
	c2.AttachDisk(nil)
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)
	c2.Store(q, symbolic.VerdictOf(q, symbolic.Model{"x": 9}, symbolic.Sat))
	if _, ok := c2.Lookup(q); !ok {
		t.Fatal("detached cache lost its memory tier")
	}
}

// TestSharedWithDisk: the per-store shared-cache registry. The plain
// Shared() cache must never gain a disk tier as a side effect — a
// Memo="shared" campaign with a StoreDir would otherwise leak its disk
// store into every later shared campaign (and a second StoreDir would
// swap the tier under running ones).
func TestSharedWithDisk(t *testing.T) {
	d1 := openTestStore(t, t.TempDir())
	d2 := openTestStore(t, t.TempDir())

	c1 := SharedWithDisk(d1)
	if c1 == Shared() {
		t.Fatal("SharedWithDisk returned the plain shared cache")
	}
	if c1.Disk() != d1 {
		t.Fatal("SharedWithDisk cache not bound to its store")
	}
	if Shared().Disk() != nil {
		t.Fatal("plain shared cache gained a disk tier")
	}
	if again := SharedWithDisk(d1); again != c1 {
		t.Fatal("SharedWithDisk is not stable per store")
	}
	c2 := SharedWithDisk(d2)
	if c2 == c1 {
		t.Fatal("two stores share one cache: a second StoreDir would swap the first's tier")
	}
	if c1.Disk() != d1 || c2.Disk() != d2 {
		t.Fatalf("disk bindings crossed: c1=%p c2=%p", c1.Disk(), c2.Disk())
	}
	if SharedWithDisk(nil) != Shared() {
		t.Fatal("SharedWithDisk(nil) must be the plain shared cache")
	}
}
