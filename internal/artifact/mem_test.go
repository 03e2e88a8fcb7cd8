package artifact

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseQuotaSpec(t *testing.T) {
	cases := []struct {
		spec string
		want MemQuota
	}{
		{"256MB", MemQuota{MaxBytes: 256 << 20}},
		{"1GB", MemQuota{MaxBytes: 1 << 30}},
		{"30m", MemQuota{MaxAge: 30 * time.Minute}},
		{"1d", MemQuota{MaxAge: 24 * time.Hour}},
		{"256MB,30m", MemQuota{MaxBytes: 256 << 20, MaxAge: 30 * time.Minute}},
		{"scenario-render=64MB", MemQuota{Kinds: map[string]int64{"scenario-render": 64 << 20}}},
		{" 256MB , 30m , scenario-render=64MB , datagen=96MB ", MemQuota{
			MaxBytes: 256 << 20, MaxAge: 30 * time.Minute,
			Kinds: map[string]int64{"scenario-render": 64 << 20, "datagen": 96 << 20},
		}},
	}
	for _, c := range cases {
		got, err := ParseQuotaSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseQuotaSpec(%q): %v", c.spec, err)
		}
		if got.MaxBytes != c.want.MaxBytes || got.MaxAge != c.want.MaxAge || len(got.Kinds) != len(c.want.Kinds) {
			t.Fatalf("ParseQuotaSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		for k, v := range c.want.Kinds {
			if got.Kinds[k] != v {
				t.Fatalf("ParseQuotaSpec(%q).Kinds[%q] = %d, want %d", c.spec, k, got.Kinds[k], v)
			}
		}
		if !got.Enabled() {
			t.Fatalf("ParseQuotaSpec(%q) parsed but not Enabled", c.spec)
		}
	}
	for _, bad := range []string{
		"", "   ", "nonsense", "0B", "-1MB", "256MB,1GB", "30m,2h",
		"=64MB", "render=", "render=bogus", "render=0B", "x=1MB,x=2MB",
		"16777217TB", "-16777215TB", "datagen=16777217TB", "213504d", "-106752d",
	} {
		if q, err := ParseQuotaSpec(bad); err == nil {
			t.Fatalf("ParseQuotaSpec(%q) = %+v, want error", bad, q)
		}
	}
	if (MemQuota{}).Enabled() {
		t.Fatal("zero MemQuota claims to be enabled")
	}
}

func TestQuotaStringRoundTrips(t *testing.T) {
	q := MemQuota{MaxBytes: 1 << 20, MaxAge: time.Hour, Kinds: map[string]int64{"a": 1 << 10, "b": 2 << 10}}
	back, err := ParseQuotaSpec(q.String())
	if err != nil {
		t.Fatalf("String %q did not re-parse: %v", q.String(), err)
	}
	if back.MaxBytes != q.MaxBytes || back.MaxAge != q.MaxAge || back.Kinds["a"] != q.Kinds["a"] || back.Kinds["b"] != q.Kinds["b"] {
		t.Fatalf("round trip %q -> %+v, want %+v", q.String(), back, q)
	}
	if (MemQuota{}).String() != "unbounded" {
		t.Fatalf("zero quota String = %q", (MemQuota{}).String())
	}
}

// FuzzParseQuotaSpec feeds arbitrary -mem-quota specs to
// ParseQuotaSpec: it must never panic, an accepted spec must bound
// something with non-negative bounds, and its String must parse back
// to an equal quota. The committed seeds include the size and age
// specs that once overflowed.
func FuzzParseQuotaSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		q, err := ParseQuotaSpec(spec)
		if err != nil {
			return
		}
		if !q.Enabled() {
			t.Fatalf("ParseQuotaSpec(%q) accepted an unbounded quota", spec)
		}
		if q.MaxBytes < 0 || q.MaxAge < 0 {
			t.Fatalf("ParseQuotaSpec(%q) accepted a negative bound: %+v", spec, q)
		}
		for kind, n := range q.Kinds {
			if n < 0 {
				t.Fatalf("ParseQuotaSpec(%q) accepted kind %q at %d bytes", spec, kind, n)
			}
		}
		back, err := ParseQuotaSpec(q.String())
		if err != nil {
			t.Fatalf("ParseQuotaSpec(%q) rejects its own String %q: %v", spec, q.String(), err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("ParseQuotaSpec(%q) = %+v, but its String %q parses as %+v", spec, q, q.String(), back)
		}
	})
}

// memVal is the soak/eviction payload: deterministic function of its
// key index so every read can verify it got the right bytes back.
type memVal struct {
	I    int
	Body string
}

func mkVal(i int) memVal {
	return memVal{I: i, Body: fmt.Sprintf("payload-%08d-%08d", i, i*7)}
}

func memKey(kind string, i int) Key {
	return KeyOf(kind, cfg{Name: fmt.Sprintf("k%08d", i), N: i})
}

// fillKind inserts n entries of kind through GetMem and returns the
// per-entry charged size observed after the first insert.
func fillKind(t *testing.T, s *Store, kind string, n int) int64 {
	t.Helper()
	var per int64
	for i := 0; i < n; i++ {
		i := i
		v, err := GetMem(s, memKey(kind, i), func() (memVal, error) { return mkVal(i), nil })
		if err != nil || v != mkVal(i) {
			t.Fatalf("fill %d: %v %v", i, v, err)
		}
		if i == 0 {
			per = s.Stats().ResidentBytes
		}
	}
	return per
}

func TestGlobalQuotaBoundsResidentBytes(t *testing.T) {
	s := New()
	per := fillKind(t, s, "thing", 1)
	quota := 8*per + per/2 // room for ~8 entries
	s.SetMemQuota(MemQuota{MaxBytes: quota})
	fillKind(t, s, "thing", 64)

	st := s.Stats()
	if st.ResidentBytes > quota {
		t.Fatalf("resident %d exceeds quota %d", st.ResidentBytes, quota)
	}
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Fatalf("64 entries into a ~8-entry quota evicted nothing: %+v", st)
	}
	if st.ResidentEntries == 0 {
		t.Fatal("quota evicted everything, should retain up to the bound")
	}
	// An evicted key recomputes to byte-identical output.
	fills := st.Fills
	v, err := GetMem(s, memKey("thing", 0), func() (memVal, error) { return mkVal(0), nil })
	if err != nil || v != mkVal(0) {
		t.Fatalf("re-get of evicted key: %v %v", v, err)
	}
	if got := s.Stats().Fills; got != fills+1 {
		t.Fatalf("evicted key should recompute exactly once: fills %d -> %d", fills, got)
	}
}

func TestEvictionIsLRU(t *testing.T) {
	s := New()
	per := fillKind(t, s, "lru", 1) // key 0 resident
	s.SetMemQuota(MemQuota{MaxBytes: 2*per + per/2})

	GetMem(s, memKey("lru", 1), func() (memVal, error) { return mkVal(1), nil })
	// Touch key 0 so key 1 is now the LRU tail.
	GetMem(s, memKey("lru", 0), func() (memVal, error) {
		t.Fatal("touching a resident key must not recompute")
		return memVal{}, nil
	})
	// Key 2 displaces exactly one entry: the untouched key 1.
	GetMem(s, memKey("lru", 2), func() (memVal, error) { return mkVal(2), nil })

	fills := s.Stats().Fills
	GetMem(s, memKey("lru", 0), func() (memVal, error) {
		t.Fatal("recently used key was evicted before the LRU tail")
		return memVal{}, nil
	})
	GetMem(s, memKey("lru", 1), func() (memVal, error) { return mkVal(1), nil })
	if got := s.Stats().Fills; got != fills+1 {
		t.Fatalf("LRU key 1 should have been the eviction victim: fills %d -> %d", fills, got)
	}
}

func TestKindQuotaShedsOnlyItsOwnKinds(t *testing.T) {
	s := New()
	fillKind(t, s, "profile", 4)
	per := s.Stats().ResidentBytes / 4
	// Bound the flood family only; "flood" must cover "flood-render"
	// by prefix. The profiles stay untouched however hard it floods.
	s.SetMemQuota(MemQuota{Kinds: map[string]int64{"flood": 3 * per}})
	fillKind(t, s, "flood-render", 32)

	st := s.Stats()
	if st.KindResident["flood-render"] > 3*per {
		t.Fatalf("flood-render resident %d exceeds its kind quota %d", st.KindResident["flood-render"], 3*per)
	}
	if st.KindEvictions["flood-render"] == 0 {
		t.Fatalf("flood past its kind quota evicted nothing: %+v", st)
	}
	if st.KindEvictions["profile"] != 0 {
		t.Fatalf("kind quota for flood evicted %d profiles", st.KindEvictions["profile"])
	}
	for i := 0; i < 4; i++ {
		GetMem(s, memKey("profile", i), func() (memVal, error) {
			t.Fatalf("profile %d was evicted by the flood's kind quota", i)
			return memVal{}, nil
		})
	}
}

func TestMaxAgeSweepEvictsIdleEntries(t *testing.T) {
	s := New()
	fillKind(t, s, "aged", 8)
	s.SetMemQuota(MemQuota{MaxAge: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	s.SweepMem()
	st := s.Stats()
	if st.ResidentEntries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("idle entries survived a MaxAge sweep: %+v", st)
	}
	if st.Evictions != 8 {
		t.Fatalf("want 8 age evictions, got %d", st.Evictions)
	}
}

func TestPrefetchStagedBytesAreCharged(t *testing.T) {
	b := newBulkBackend()
	seed := NewWithBackend(b)
	const n = 16
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		keys[i] = memKey("pre", i)
		i := i
		Get(seed, keys[i], func() (memVal, error) { return mkVal(i), nil })
	}

	// Unbounded store: staging charges the books, consumption via Get
	// uncharges the staged bytes (the decoded entry is charged anew).
	s := NewWithBackend(b)
	if got := s.Prefetch(keys); got != n {
		t.Fatalf("staged %d, want %d", got, n)
	}
	st := s.Stats()
	if st.ResidentEntries != n || st.ResidentBytes == 0 {
		t.Fatalf("staged prefetch bytes not charged: %+v", st)
	}
	b.mu.Lock()
	gets := b.gets
	b.mu.Unlock()
	for i := 0; i < n; i++ {
		v, err := Get(s, keys[i], func() (memVal, error) {
			t.Fatalf("prefetched key %d recomputed", i)
			return memVal{}, nil
		})
		if err != nil || v != mkVal(i) {
			t.Fatalf("prefetched key %d: %v %v", i, v, err)
		}
	}
	b.mu.Lock()
	getsAfter := b.gets
	b.mu.Unlock()
	if getsAfter != gets {
		t.Fatal("prefetched keys should not re-read the backend per key")
	}
	if rem := s.Stats(); rem.ResidentEntries != n {
		t.Fatalf("after consuming %d staged entries want %d residents (the decoded entries), got %+v", n, n, rem)
	}

	// Bounded store: a quota smaller than the staged total evicts
	// staged bytes like anything else, and evicted stages fall back to
	// per-key backend reads — values stay correct.
	s2 := NewWithBackend(b)
	s2.Prefetch(keys[:1])
	per := s2.Stats().ResidentBytes
	s2 = NewWithBackend(b)
	s2.SetMemQuota(MemQuota{MaxBytes: 4*per + per/2})
	s2.Prefetch(keys)
	st2 := s2.Stats()
	if st2.ResidentBytes > 4*per+per/2 {
		t.Fatalf("staged bytes exceed quota: %+v", st2)
	}
	if st2.Evictions == 0 {
		t.Fatalf("staging %d entries into a ~4-entry quota evicted nothing: %+v", n, st2)
	}
	for i := 0; i < n; i++ {
		v, err := Get(s2, keys[i], func() (memVal, error) {
			t.Fatalf("key %d recomputed despite backend copy", i)
			return memVal{}, nil
		})
		if err != nil || v != mkVal(i) {
			t.Fatalf("key %d after staged eviction: %v %v", i, v, err)
		}
	}
}

// TestEvictionByteInvisible is the differential proof the issue asks
// for: a quota-bounded store must serve exactly the bytes an unbounded
// store serves, for every key, whether the bounded store answers from
// memory, from the shared backend, or by recomputation after an
// eviction.
func TestEvictionByteInvisible(t *testing.T) {
	dir := t.TempDir()
	backend, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := NewWithBackend(backend)
	bounded := NewWithBackend(backend)

	const n = 48
	compute := func(i int) func() (memVal, error) {
		return func() (memVal, error) { return mkVal(i), nil }
	}
	want := make([]memVal, n)
	for i := 0; i < n; i++ {
		want[i], err = Get(unbounded, memKey("diff", i), compute(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	per := func() int64 {
		probe := New()
		Get(probe, memKey("diff", 0), compute(0))
		return probe.Stats().ResidentBytes
	}()
	bounded.SetMemQuota(MemQuota{MaxBytes: 6 * per})

	// Walk the keyspace in a fixed pseudo-random order, several laps,
	// so most reads hit keys the quota has since evicted.
	idx := 0
	for lap := 0; lap < 4; lap++ {
		for j := 0; j < n; j++ {
			idx = (idx*131 + 17) % n
			got, err := Get(bounded, memKey("diff", idx), compute(idx))
			if err != nil {
				t.Fatal(err)
			}
			if got != want[idx] {
				t.Fatalf("lap %d key %d: bounded store served %+v, unbounded %+v", lap, idx, got, want[idx])
			}
		}
	}
	st := bounded.Stats()
	if st.Evictions == 0 {
		t.Fatalf("differential walk never evicted — quota too loose to prove anything: %+v", st)
	}

	// Memory-only variant: no backend, every evicted key recomputes.
	memOnly := New()
	memOnly.SetMemQuota(MemQuota{MaxBytes: 6 * per})
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < n; i++ {
			got, err := GetMem(memOnly, memKey("diff", i), compute(i))
			if err != nil || got != want[i] {
				t.Fatalf("mem-only lap %d key %d: %+v %v, want %+v", lap, i, got, err, want[i])
			}
		}
	}
	if memOnly.Stats().Evictions == 0 {
		t.Fatal("mem-only differential walk never evicted")
	}
}

// TestInFlightFillSurvivesEvictionPressure holds a fill open while a
// flood evicts everything around it: the in-flight fill must complete
// exactly once and its waiters must observe the computed value — an
// in-flight fill has no LRU node and cannot be evicted.
func TestInFlightFillSurvivesEvictionPressure(t *testing.T) {
	s := New()
	per := fillKind(t, s, "flood", 1)
	s.SetMemQuota(MemQuota{MaxBytes: 3 * per})

	block := make(chan struct{})
	var computes atomic.Int64
	slowKey := KeyOf("slow", cfg{Name: "held", N: 1})
	var wg sync.WaitGroup
	results := make([]memVal, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, err := GetMem(s, slowKey, func() (memVal, error) {
				computes.Add(1)
				<-block
				return mkVal(999), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", w, err)
			}
			results[w] = v
		}(w)
	}
	// Let the fill start, then flood hard enough to cycle the whole
	// quota several times over.
	time.Sleep(10 * time.Millisecond)
	fillKind(t, s, "flood", 32)
	close(block)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("in-flight fill ran %d times under eviction pressure", got)
	}
	for w, v := range results {
		if v != mkVal(999) {
			t.Fatalf("waiter %d observed %+v", w, v)
		}
	}
}

func TestCancelledFillNotCachedUnderQuota(t *testing.T) {
	s := New()
	s.SetMemQuota(MemQuota{MaxBytes: 1 << 20})
	key := KeyOf("cancel", cfg{Name: "c", N: 1})
	if _, err := GetMem(s, key, func() (memVal, error) {
		return memVal{}, context.Canceled
	}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	st := s.Stats()
	if st.ResidentEntries != 0 {
		t.Fatalf("cancelled fill was charged as a resident: %+v", st)
	}
	v, err := GetMem(s, key, func() (memVal, error) { return mkVal(7), nil })
	if err != nil || v != mkVal(7) {
		t.Fatalf("retry after cancellation: %v %v", v, err)
	}
}

// TestEvictionRaceHammer runs Get, Peek, Prefetch, cancelled fills and
// quota sweeps concurrently over an overlapping keyspace sized well
// past the quota, with -race watching. Every read must observe the
// deterministic value of its key.
func TestEvictionRaceHammer(t *testing.T) {
	b := newBulkBackend()
	seed := NewWithBackend(b)
	const keyspace = 64
	keys := make([]Key, keyspace)
	for i := 0; i < keyspace; i++ {
		keys[i] = memKey("hammer", i)
		i := i
		Get(seed, keys[i], func() (memVal, error) { return mkVal(i), nil })
	}
	per := func() int64 {
		probe := New()
		Get(probe, keys[0], func() (memVal, error) { return mkVal(0), nil })
		return probe.Stats().ResidentBytes
	}()

	s := NewWithBackend(b)
	s.SetMemQuota(MemQuota{MaxBytes: (keyspace / 4) * per})

	const workers = 12
	iters := 400
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint32(w*2654435761 + 1)
			next := func() int {
				rng = rng*1664525 + 1013904223
				return int(rng>>8) % keyspace
			}
			for it := 0; it < iters; it++ {
				i := next()
				switch w % 4 {
				case 0: // getter
					v, err := Get(s, keys[i], func() (memVal, error) { return mkVal(i), nil })
					if err != nil || v != mkVal(i) {
						t.Errorf("get %d: %+v %v", i, v, err)
						return
					}
				case 1: // peeker
					if v, ok := Peek[memVal](s, keys[i], nil); ok && v != mkVal(i) {
						t.Errorf("peek %d observed %+v", i, v)
						return
					}
				case 2: // prefetcher / canceller
					if it%8 == 0 {
						s.Prefetch(keys[i : i+min(4, keyspace-i)])
					} else {
						k := KeyOf("hammer-miss", cfg{Name: "m", N: i*workers + w})
						if _, err := GetMem(s, k, func() (memVal, error) {
							return memVal{}, context.Canceled
						}); err != context.Canceled && err != nil {
							t.Errorf("cancel fill %d: %v", i, err)
							return
						}
					}
				case 3: // sweeper
					if it%16 == 0 {
						s.SweepMem()
					} else {
						v, err := Get(s, keys[i], func() (memVal, error) { return mkVal(i), nil })
						if err != nil || v != mkVal(i) {
							t.Errorf("get %d: %+v %v", i, v, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("hammer never evicted — quota too loose to exercise the races: %+v", st)
	}
	if q := s.MemQuota(); st.ResidentBytes > q.MaxBytes {
		t.Fatalf("resident %d exceeds quota %d after hammer", st.ResidentBytes, q.MaxBytes)
	}
}

// TestSoakBoundedMemory streams a large keyspace of distinct
// scenario-render-sized artefacts through a quota-bounded store — the
// long-lived daemon's leak scenario — and asserts the process heap
// plateaus instead of growing with the keyspace, that the quota
// actually evicted, and that re-served keys are byte-identical.
func TestSoakBoundedMemory(t *testing.T) {
	keyspace := soakKeys
	if testing.Short() {
		keyspace = soakKeys / 20
	}
	s := New()
	s.SetMemQuota(MemQuota{MaxBytes: 8 << 20})

	heapAfter := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	compute := func(i int) func() (memVal, error) {
		return func() (memVal, error) { return mkVal(i), nil }
	}
	key := func(i int) Key {
		return KeyOf("scenario-render", cfg{Name: fmt.Sprintf("soak%09d", i), N: i})
	}

	// Warm 1/4 of the way in, then sample the heap at intervals: under
	// a working quota the later samples stay near the warm baseline no
	// matter how many more distinct keys stream through.
	checkpoints := 4
	perCheck := keyspace / checkpoints
	var baseline uint64
	for c := 0; c < checkpoints; c++ {
		for i := c * perCheck; i < (c+1)*perCheck; i++ {
			v, err := GetMem(s, key(i), compute(i))
			if err != nil || v != mkVal(i) {
				t.Fatalf("soak key %d: %+v %v", i, v, err)
			}
		}
		h := heapAfter()
		if c == 0 {
			baseline = h
			continue
		}
		// Allow generous slack (2x + 16MB) over the first checkpoint:
		// the assertion is "flat", not "exact" — an unbounded store
		// grows ~linearly and blows far past this.
		if limit := 2*baseline + (16 << 20); h > limit {
			t.Fatalf("heap grew with the keyspace: checkpoint %d heap %dMB, baseline %dMB (limit %dMB) — quota not holding",
				c, h>>20, baseline>>20, limit>>20)
		}
	}

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("soak never evicted: %+v", st)
	}
	if st.ResidentBytes > 8<<20 {
		t.Fatalf("soak resident %d exceeds quota", st.ResidentBytes)
	}
	// Sampled re-gets: evicted keys recompute to identical values.
	for i := 0; i < keyspace; i += keyspace / 16 {
		v, err := GetMem(s, key(i), compute(i))
		if err != nil || v != mkVal(i) {
			t.Fatalf("soak re-get %d: %+v %v", i, v, err)
		}
	}
	t.Logf("soak: %d keys through an 8MB quota: %d evictions, %dMB evicted, %d resident entries (%dKB)",
		keyspace, st.Evictions, st.EvictedBytes>>20, st.ResidentEntries, st.ResidentBytes>>10)
}
