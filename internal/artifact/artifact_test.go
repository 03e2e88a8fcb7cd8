package artifact

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// diskPath locates key's entry file in a disk-backed store's backend.
func diskPath(s *Store, key Key) string {
	return s.backend.(*DiskBackend).path(key.ID())
}

type cfg struct {
	Name string
	N    int
}

func TestKeyOfCanonical(t *testing.T) {
	a := KeyOf("kind", cfg{Name: "x", N: 3})
	b := KeyOf("kind", cfg{Name: "x", N: 3})
	if a.ID() != b.ID() || a.Label != b.Label {
		t.Fatalf("same config produced different keys: %q vs %q", a.ID(), b.ID())
	}
	if c := KeyOf("kind", cfg{Name: "x", N: 4}); c.ID() == a.ID() {
		t.Fatalf("different configs share key %q", c.ID())
	}
	if d := KeyOf("other", cfg{Name: "x", N: 3}); d.ID() == a.ID() {
		t.Fatalf("different kinds share key %q", d.ID())
	}
	if a.Label != `{"Name":"x","N":3}` {
		t.Fatalf("label is not canonical JSON: %q", a.Label)
	}
}

// TestGetSingleflight race-hammers one key from many goroutines: the
// compute must execute exactly once and everyone must observe its
// value. Run with -race this also guards the fill pattern.
func TestGetSingleflight(t *testing.T) {
	s := New()
	key := KeyOf("flight", cfg{Name: "k", N: 1})
	var computes atomic.Int64
	const hammers = 32
	vals := make([]int, hammers)
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := Get(s, key, func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[g] = v
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", got)
	}
	for g, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d observed %d, want 42", g, v)
		}
	}
	if st := s.Stats(); st.Fills != 1 {
		t.Fatalf("stats report %d fills, want 1", st.Fills)
	}
}

func TestGetDistinctKeysFillIndependently(t *testing.T) {
	s := New()
	var computes atomic.Int64
	for i := 0; i < 4; i++ {
		v, err := Get(s, KeyOf("multi", cfg{N: i}), func() (int, error) {
			computes.Add(1)
			return i * i, nil
		})
		if err != nil || v != i*i {
			t.Fatalf("key %d: got %d, %v", i, v, err)
		}
	}
	if computes.Load() != 4 {
		t.Fatalf("%d computes for 4 keys", computes.Load())
	}
}

func TestGetTypeMismatchRejected(t *testing.T) {
	s := New()
	key := KeyOf("typed", cfg{N: 1})
	if _, err := Get(s, key, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := Get(s, key, func() (string, error) { return "x", nil }); err == nil {
		t.Fatal("type mismatch on a shared key not rejected")
	}
}

type blob struct {
	Words []string
	Vals  []float64
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("blob", cfg{Name: "rt", N: 9})
	want := blob{Words: []string{"a", "b"}, Vals: []float64{1.5, -0.25, 1e-300}}
	if _, err := Get(a, key, func() (blob, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory models a new process: the
	// fill must come from disk, executing nothing.
	b, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(b, key, func() (blob, error) {
		t.Error("warm store executed the compute")
		return blob{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Words) != 2 || got.Words[0] != "a" || len(got.Vals) != 3 || got.Vals[2] != 1e-300 {
		t.Fatalf("disk round trip mangled the value: %+v", got)
	}
	st := b.Stats()
	if st.Fills != 0 || st.BackendHits != 1 {
		t.Fatalf("warm store stats %+v, want 0 fills / 1 disk hit", st)
	}
}

// TestDiskCorruptEntryFallsBack damages a persisted entry — garbage
// bytes, or the entry cut to half its bytes — and checks each is
// discarded and recomputed, never trusted.
func TestDiskCorruptEntryFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(entry []byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("not gob at all") }},
		{"half", func(entry []byte) []byte { return entry[:len(entry)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, _ := NewDisk(dir)
			key := KeyOf("corrupt", cfg{N: 5})
			if _, err := Get(a, key, func() (int, error) { return 5, nil }); err != nil {
				t.Fatal(err)
			}
			entry, err := os.ReadFile(diskPath(a, key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(diskPath(a, key), tc.corrupt(entry), 0o644); err != nil {
				t.Fatal(err)
			}

			b, _ := NewDisk(dir)
			v, err := Get(b, key, func() (int, error) { return 5, nil })
			if err != nil || v != 5 {
				t.Fatalf("corrupted entry not recomputed: %d, %v", v, err)
			}
			st := b.Stats()
			if st.BackendDiscards != 1 || st.Fills != 1 {
				t.Fatalf("stats %+v, want 1 discard / 1 fill", st)
			}

			// The recompute rewrote a valid entry: a third store reads it.
			c, _ := NewDisk(dir)
			if _, err := Get(c, key, func() (int, error) {
				t.Error("rewritten entry not loaded")
				return 0, nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskMislabelledEntryDiscarded plants a well-formed entry whose
// recorded label disagrees with the key (what an FNV collision or a
// stale config format would look like): it must be discarded.
func TestDiskMislabelledEntryDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewDisk(dir)
	key := KeyOf("label", cfg{N: 1})

	var payload bytes.Buffer
	gob.NewEncoder(&payload).Encode(999)
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(Entry{
		Version: Version, Kind: key.Kind, Label: `{"Other":"config"}`, Payload: payload.Bytes(),
	})
	if err := os.WriteFile(diskPath(s, key), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	v, err := Get(s, key, func() (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("mislabelled entry was trusted: %d, %v", v, err)
	}
	if st := s.Stats(); st.BackendDiscards != 1 {
		t.Fatalf("stats %+v, want 1 discard", st)
	}
}

// TestGetCheckedRejectsStale persists a value, then loads it through a
// check that rejects it (as when a persisted roster no longer matches
// the code): the store must recompute.
func TestGetCheckedRejectsStale(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewDisk(dir)
	key := KeyOf("checked", cfg{N: 2})
	if _, err := Get(a, key, func() ([]int, error) { return []int{1, 2}, nil }); err != nil {
		t.Fatal(err)
	}

	b, _ := NewDisk(dir)
	v, err := GetChecked(b, key,
		func(v []int) bool { return len(v) == 3 }, // the caller now expects 3
		func() ([]int, error) { return []int{1, 2, 3}, nil })
	if err != nil || len(v) != 3 {
		t.Fatalf("stale entry not recomputed: %v, %v", v, err)
	}
	if st := b.Stats(); st.BackendDiscards != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v, want 1 discard / 1 fill", st)
	}
}

func TestGetMemSkipsDisk(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewDisk(dir)
	key := KeyOf("memonly", cfg{N: 3})
	if _, err := GetMem(a, key, func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(diskPath(a, key)); !os.IsNotExist(err) {
		t.Fatal("GetMem persisted to disk")
	}
	// Same store: memory hit, no recompute.
	ran := false
	if v, _ := GetMem(a, key, func() (int, error) { ran = true; return 0, nil }); v != 3 || ran {
		t.Fatalf("memory tier missed: v=%d ran=%v", v, ran)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	s := New()
	key := KeyOf("err", cfg{N: 4})
	wantErr := os.ErrPermission
	if _, err := Get(s, key, func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("got %v, want %v", err, wantErr)
	}
	// The error is cached: later callers see it without recomputing.
	if _, err := Get(s, key, func() (int, error) { return 1, nil }); err != wantErr {
		t.Fatalf("cached error lost: %v", err)
	}
	if st := s.Stats(); st.Fills != 0 {
		t.Fatalf("failed compute counted as fill: %+v", st)
	}
}

func TestContextErrorNotCached(t *testing.T) {
	s := New()
	key := KeyOf("ctxerr", cfg{N: 9})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Get(s, key, func() (int, error) { return 0, ctx.Err() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Unlike a deterministic compute error, a cancellation is the
	// caller's fault: the next caller must recompute and succeed.
	v, err := Get(s, key, func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry after cancellation: v=%d err=%v", v, err)
	}
}

func TestPanickingComputeNotCachedAndRethrown(t *testing.T) {
	s := New()
	key := KeyOf("panic", cfg{N: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute panic was swallowed")
			}
		}()
		Get(s, key, func() (int, error) { panic("compute exploded") })
	}()
	v, err := Get(s, key, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after panic: v=%d err=%v", v, err)
	}
}

func TestPeek(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("peek", cfg{N: 3})
	if _, ok := Peek[int](a, key, nil); ok {
		t.Fatal("peek hit on an empty store")
	}
	if _, err := Get(a, key, func() (int, error) { return 33, nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := Peek[int](a, key, nil); !ok || v != 33 {
		t.Fatalf("peek after fill: v=%d ok=%v", v, ok)
	}
	// A fresh store over the same directory peeks the persisted entry
	// without computing, and installs it for the next peek.
	b, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := Peek[int](b, key, nil); !ok || v != 33 {
		t.Fatalf("cross-process peek: v=%d ok=%v", v, ok)
	}
	if st := b.Stats(); st.Fills != 0 || st.BackendHits != 1 {
		t.Fatalf("peek stats: %+v", st)
	}
	if v, ok := Peek[int](b, key, nil); !ok || v != 33 {
		t.Fatalf("second peek: v=%d ok=%v", v, ok)
	}
	if st := b.Stats(); st.BackendHits != 1 {
		t.Fatalf("second peek re-read the backend: %+v", st)
	}
	// And a Get after a peek must not recompute over the installed value.
	v, err := Get(b, key, func() (int, error) {
		t.Fatal("Get recomputed a peeked value")
		return 0, nil
	})
	if err != nil || v != 33 {
		t.Fatalf("get after peek: v=%d err=%v", v, err)
	}
}

// bulkBackend wraps a map backend with FetchAll, counting calls.
type bulkBackend struct {
	mu       sync.Mutex
	entries  map[string][]byte
	gets     int
	bulkGets int
}

func newBulkBackend() *bulkBackend { return &bulkBackend{entries: map[string][]byte{}} }

func (b *bulkBackend) Get(id string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	e, ok := b.entries[id]
	return e, ok
}

func (b *bulkBackend) Put(id string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries[id] = data
}

func (b *bulkBackend) FetchAll(ids []string) map[string][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bulkGets++
	out := map[string][]byte{}
	for _, id := range ids {
		if e, ok := b.entries[id]; ok {
			out[id] = e
		}
	}
	return out
}

func TestPrefetchStagesClosureInOneRoundTrip(t *testing.T) {
	bb := newBulkBackend()
	producer := NewWithBackend(bb)
	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = KeyOf("bulk", cfg{N: i})
		if _, err := Get(producer, keys[i], func() (int, error) { return i * 11, nil }); err != nil {
			t.Fatal(err)
		}
	}

	consumer := NewWithBackend(bb)
	if !consumer.BulkCapable() {
		t.Fatal("bulk backend not recognized")
	}
	bb.mu.Lock()
	bb.gets = 0
	bb.mu.Unlock()
	if n := consumer.Prefetch(keys); n != 8 {
		t.Fatalf("prefetched %d of 8", n)
	}
	for i, k := range keys {
		v, err := Get(consumer, k, func() (int, error) {
			t.Fatalf("key %d recomputed despite prefetch", i)
			return 0, nil
		})
		if err != nil || v != i*11 {
			t.Fatalf("key %d: v=%d err=%v", i, v, err)
		}
	}
	bb.mu.Lock()
	gets, bulk := bb.gets, bb.bulkGets
	bb.mu.Unlock()
	if gets != 0 {
		t.Fatalf("fills issued %d per-key backend gets after prefetch", gets)
	}
	if bulk != 1 {
		t.Fatalf("prefetch issued %d bulk round trips, want 1", bulk)
	}
	if st := consumer.Stats(); st.Prefetched != 8 || st.BackendHits != 8 {
		t.Fatalf("prefetch stats: %+v", st)
	}
	// A second prefetch of already-filled keys stages nothing.
	if n := consumer.Prefetch(keys); n != 0 {
		t.Fatalf("re-prefetch staged %d entries", n)
	}
}

func TestPrefetchNoopWithoutBulkBackend(t *testing.T) {
	s := New()
	if s.BulkCapable() {
		t.Fatal("memory-only store claims bulk capability")
	}
	if n := s.Prefetch([]Key{KeyOf("x", cfg{N: 1})}); n != 0 {
		t.Fatalf("prefetch staged %d entries with no backend", n)
	}
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d.BulkCapable() {
		t.Fatal("disk-only store claims bulk capability")
	}
}

func TestChainFetchAllPromotesAndSkipsLocalHits(t *testing.T) {
	bb := newBulkBackend()
	producer := NewWithBackend(bb)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf("chainbulk", cfg{N: i})
		if _, err := Get(producer, keys[i], func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	disk, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the local tier with key 0 only.
	if b, ok := bb.Get(keys[0].ID()); ok {
		disk.Put(keys[0].ID(), b)
	}
	ch := Chain(disk, bb).(BulkFetcher)
	bb.mu.Lock()
	bb.bulkGets = 0
	bb.mu.Unlock()
	ids := make([]string, len(keys))
	for i, k := range keys {
		ids[i] = k.ID()
	}
	got := ch.FetchAll(ids)
	if len(got) != 4 {
		t.Fatalf("chain FetchAll returned %d of 4", len(got))
	}
	bb.mu.Lock()
	bulk := bb.bulkGets
	bb.mu.Unlock()
	if bulk != 1 {
		t.Fatalf("chain issued %d bulk calls, want 1", bulk)
	}
	// Remote entries were promoted into the disk tier.
	for _, k := range keys[1:] {
		if _, ok := disk.Get(k.ID()); !ok {
			t.Fatalf("entry %s not promoted into the front tier", k.ID())
		}
	}
	// A chain without any bulk tier fetches nothing.
	if got := Chain(disk).(Backend); got == nil {
		t.Fatal("unreachable")
	}
	plain := chain{disk}
	if got := plain.FetchAll(ids); got != nil {
		t.Fatalf("bulk-less chain returned %d entries", len(got))
	}
}

func TestClosureWireRoundTrip(t *testing.T) {
	entries := []ClosureEntry{
		{ID: "a-0000000000000001", Data: []byte("alpha")},
		{ID: "b-0000000000000002", Data: []byte("beta")},
	}
	b, err := EncodeClosure(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeClosure(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "a-0000000000000001" || string(got[1].Data) != "beta" {
		t.Fatalf("round trip mangled entries: %+v", got)
	}
	if _, err := DecodeClosure([]byte("not gob")); err == nil {
		t.Fatal("garbage closure decoded")
	}
}

// TestWaiterRetriesAfterForeignCancellation pins the coalescing
// repair: a caller blocked on another goroutine's fill must not
// inherit that goroutine's cancellation — it retries under its own
// (live) context and converges on a real answer.
func TestWaiterRetriesAfterForeignCancellation(t *testing.T) {
	s := New()
	key := KeyOf("shared", cfg{N: 1})
	computing := make(chan struct{})
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	ownerErr := make(chan error, 1)
	go func() {
		_, err := Get(s, key, func() (int, error) {
			close(computing)
			<-release
			return 0, ctx.Err() // the owner's context died mid-compute
		})
		ownerErr <- err
	}()
	<-computing

	waiterVal := make(chan int, 1)
	go func() {
		// Arrives while the doomed fill is in flight; must end up
		// computing (or waiting on a successful fill), never seeing
		// the owner's context error.
		v, err := Get(s, key, func() (int, error) { return 99, nil })
		if err != nil {
			t.Errorf("waiter err = %v", err)
		}
		waiterVal <- v
	}()
	// Let the waiter reach the singleflight, then cancel the owner.
	time.Sleep(10 * time.Millisecond)
	cancel()
	close(release)

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if v := <-waiterVal; v != 99 {
		t.Fatalf("waiter got %d, want its own compute (99)", v)
	}
}
