package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fillN persists n int entries of kind through a fresh store over dir
// and returns their keys.
func fillN(t *testing.T, dir, kind string, n int) []Key {
	t.Helper()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		keys[i] = KeyOf(kind, cfg{Name: kind, N: i})
		if _, err := Get(s, keys[i], func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// backdate pushes key's entry file age seconds into the past.
func backdate(t *testing.T, dir string, key Key, age time.Duration) {
	t.Helper()
	when := time.Now().Add(-age)
	if err := os.Chtimes(filepath.Join(dir, key.ID()+".gob"), when, when); err != nil {
		t.Fatal(err)
	}
}

func entryExists(dir string, key Key) bool {
	_, err := os.Stat(filepath.Join(dir, key.ID()+".gob"))
	return err == nil
}

func TestGCAgeBound(t *testing.T) {
	dir := t.TempDir()
	keys := fillN(t, dir, "gc-age", 6)
	// Backdate the first three beyond the bound.
	for _, k := range keys[:3] {
		backdate(t, dir, k, 48*time.Hour)
	}
	res, err := GC(dir, 0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 6 || res.Removed != 3 {
		t.Fatalf("GC scanned %d / removed %d, want 6 / 3 (%+v)", res.Scanned, res.Removed, res)
	}
	for _, k := range keys[:3] {
		if entryExists(dir, k) {
			t.Errorf("expired entry %s survived the age sweep", k.ID())
		}
	}
	for _, k := range keys[3:] {
		if !entryExists(dir, k) {
			t.Errorf("fresh entry %s was evicted by the age sweep", k.ID())
		}
	}
	// The evicted artefacts recompute and re-persist on next use.
	warm, _ := NewDisk(dir)
	if v, err := Get(warm, keys[0], func() (int, error) { return 0, nil }); err != nil || v != 0 {
		t.Fatalf("post-GC refill failed: %d, %v", v, err)
	}
	if st := warm.Stats(); st.Fills != 1 {
		t.Fatalf("post-GC stats %+v, want 1 fill", st)
	}
}

func TestGCSizeBoundEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	keys := fillN(t, dir, "gc-size", 8)
	var each int64
	// Entries of one kind and type have identical sizes; spread mtimes
	// so recency order is keys[0] (oldest) .. keys[7] (newest).
	for i, k := range keys {
		info, err := os.Stat(filepath.Join(dir, k.ID()+".gob"))
		if err != nil {
			t.Fatal(err)
		}
		each = info.Size()
		backdate(t, dir, k, time.Duration(len(keys)-i)*time.Hour)
	}
	// Cap at ~3 entries: the 5 least recently used must go.
	res, err := GC(dir, 3*each, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 5 {
		t.Fatalf("GC removed %d entries, want 5 (%+v)", res.Removed, res)
	}
	if res.BytesKept > 3*each {
		t.Fatalf("GC kept %d bytes over the %d cap", res.BytesKept, 3*each)
	}
	for _, k := range keys[:5] {
		if entryExists(dir, k) {
			t.Errorf("LRU entry %s survived the size sweep", k.ID())
		}
	}
	for _, k := range keys[5:] {
		if !entryExists(dir, k) {
			t.Errorf("recent entry %s was evicted by the size sweep", k.ID())
		}
	}
}

// TestGCReadRefreshesRecency pins the LRU signal: reading an entry
// through a store touches it, so a hot entry outlives colder ones in
// a size-capped sweep even if it was written first.
func TestGCReadRefreshesRecency(t *testing.T) {
	dir := t.TempDir()
	keys := fillN(t, dir, "gc-lru", 4)
	var each int64
	for i, k := range keys {
		info, err := os.Stat(filepath.Join(dir, k.ID()+".gob"))
		if err != nil {
			t.Fatal(err)
		}
		each = info.Size()
		backdate(t, dir, k, time.Duration(len(keys)-i)*time.Hour)
	}
	// Read the oldest entry through a warm store: it becomes the most
	// recently used.
	warm, _ := NewDisk(dir)
	if _, err := Get(warm, keys[0], func() (int, error) {
		t.Error("warm read recomputed")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(dir, 2*each, 0); err != nil {
		t.Fatal(err)
	}
	if !entryExists(dir, keys[0]) {
		t.Error("recently read entry was evicted — reads are not refreshing recency")
	}
	if entryExists(dir, keys[1]) {
		t.Error("least recently used entry survived a cap that must evict it")
	}
}

// TestGCKeepsConcurrentFills sweeps while another store is publishing:
// entries filled during the sweep must all survive and load afterwards.
func TestGCKeepsConcurrentFills(t *testing.T) {
	dir := t.TempDir()
	old := fillN(t, dir, "gc-old", 4)
	for _, k := range old {
		backdate(t, dir, k, 48*time.Hour)
	}

	filler, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fresh = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < fresh; i++ {
			key := KeyOf("gc-fresh", cfg{Name: "fresh", N: i})
			if _, err := Get(filler, key, func() (int, error) { return i, nil }); err != nil {
				t.Error(err)
			}
		}
	}()
	if _, err := GC(dir, 0, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// A second sweep after the fills still keeps every fresh key.
	if _, err := GC(dir, 0, 24*time.Hour); err != nil {
		t.Fatal(err)
	}

	warm, _ := NewDisk(dir)
	for i := 0; i < fresh; i++ {
		key := KeyOf("gc-fresh", cfg{Name: "fresh", N: i})
		v, err := Get(warm, key, func() (int, error) {
			return -1, fmt.Errorf("entry %d lost to a concurrent sweep", i)
		})
		if err != nil || v != i {
			t.Fatalf("fresh entry %d: %d, %v", i, v, err)
		}
	}
	for _, k := range old {
		if entryExists(dir, k) {
			t.Errorf("expired entry %s survived", k.ID())
		}
	}
}

func TestGCStaleTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "blob-0011223344556677.gob.tmp-123")
	if err := os.WriteFile(stale, []byte("crashed writer leavings"), 0o644); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-2 * time.Hour)
	os.Chtimes(stale, when, when)
	inflight := filepath.Join(dir, "blob-8899aabbccddeeff.gob.tmp-456")
	if err := os.WriteFile(inflight, []byte("being written right now"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(dir, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(inflight); err != nil {
		t.Error("in-flight temp file was swept")
	}
}

func TestParseGCSpec(t *testing.T) {
	day := 24 * time.Hour
	good := []struct {
		spec string
		want GCPolicy
	}{
		{"4GB", GCPolicy{MaxBytes: 4 << 30}},
		{"512MB", GCPolicy{MaxBytes: 512 << 20}},
		{"64kb", GCPolicy{MaxBytes: 64 << 10}},
		{"1048576", GCPolicy{MaxBytes: 1 << 20}},
		{"100B", GCPolicy{MaxBytes: 100}},
		{"168h", GCPolicy{MaxAge: 168 * time.Hour}},
		{"90m", GCPolicy{MaxAge: 90 * time.Minute}},
		{"14d", GCPolicy{MaxAge: 14 * day}},
		{"4GB,168h", GCPolicy{MaxBytes: 4 << 30, MaxAge: 168 * time.Hour}},
		{"168h,4GB", GCPolicy{MaxBytes: 4 << 30, MaxAge: 168 * time.Hour}},
		{" 2tb , 7d ", GCPolicy{MaxBytes: 2 << 40, MaxAge: 7 * day}},
	}
	for _, tc := range good {
		got, err := ParseGCSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseGCSpec(%q): %v", tc.spec, err)
		} else if got != tc.want {
			t.Errorf("ParseGCSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	bad := []string{
		"", " ", ",", "4GB,", "banana", "-4GB", "-24h", "0", "0h",
		"4GB,2GB", "24h,36h", "4GB,168h,1MB", "1.5GB",
		"16777217TB", "-16777215TB", "213504d", "-106752d",
	}
	for _, spec := range bad {
		if p, err := ParseGCSpec(spec); err == nil {
			t.Errorf("ParseGCSpec(%q) accepted: %+v", spec, p)
		}
	}
}

// FuzzParseGCSpec feeds arbitrary -gc specs to ParseGCSpec: it must
// never panic, and an accepted spec sets at least one bound, neither
// negative. The committed seeds include the size and age specs that
// once overflowed.
func FuzzParseGCSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseGCSpec(spec)
		if err != nil {
			return
		}
		if p.MaxBytes < 0 || p.MaxAge < 0 {
			t.Fatalf("ParseGCSpec(%q) accepted a negative bound: %+v", spec, p)
		}
		if p.MaxBytes == 0 && p.MaxAge == 0 {
			t.Fatalf("ParseGCSpec(%q) accepted a spec that bounds nothing", spec)
		}
	})
}
