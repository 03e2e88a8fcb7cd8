package artifactd

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
)

// reopen closes srv and serves its directory from a new server, as a
// restart does.
func reopen(t *testing.T, srv *Server) (*Server, *httptest.Server) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := New(srv.Dir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { next.Close() })
	ts := httptest.NewServer(next.Handler())
	t.Cleanup(ts.Close)
	return next, ts
}

// get GETs url and returns the status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// seed PUTs n entries of kind and returns their ids and encoded
// entries, each payload size bytes.
func seed(t *testing.T, url, kind string, n, size int) ([]string, [][]byte) {
	t.Helper()
	ids := make([]string, n)
	entries := make([][]byte, n)
	for i := range ids {
		key := artifact.KeyOf(kind, i)
		ids[i], entries[i] = key.ID(), encodedEntry(t, key, bytes.Repeat([]byte{byte(i)}, size))
		if resp := put(t, url+"/artifact/"+ids[i], entries[i]); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s: status %d", ids[i], resp.StatusCode)
		}
	}
	return ids, entries
}

// mustServe fails t unless every id is served with its entry.
func mustServe(t *testing.T, url string, ids []string, entries [][]byte) {
	t.Helper()
	for i, id := range ids {
		if code, b := get(t, url+"/artifact/"+id); code != http.StatusOK || !bytes.Equal(b, entries[i]) {
			t.Errorf("GET %s: status %d, %d bytes; want 200 with its %d-byte entry", id, code, len(b), len(entries[i]))
		}
	}
}

// mustMiss fails t unless every id is answered 404.
func mustMiss(t *testing.T, url string, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if code, _ := get(t, url+"/artifact/"+id); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", id, code)
		}
	}
}

// indexed returns id's record, or nil.
func indexed(srv *Server, id string) *record {
	srv.log.mu.RLock()
	defer srv.log.mu.RUnlock()
	return srv.log.index[id]
}

// overwrite replaces id's stored entry with b, bypassing verification:
// a record that passes its checksum and fails the entry's checks.
func overwrite(srv *Server, id string, b []byte) {
	srv.log.drop(id, indexed(srv, id))
	srv.log.put(id, b)
}

// flipPayloadByte inverts one byte of payload inside id's record in the
// log file, under the running server. The entry still decodes and
// carries its identity; only the record's checksum tells it changed.
func flipPayloadByte(t *testing.T, srv *Server, id string, payload []byte) {
	t.Helper()
	rec := indexed(srv, id)
	f, err := os.OpenFile(filepath.Join(srv.Dir(), logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, rec.size(id))
	if _, err := f.ReadAt(b, rec.off); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, payload)
	if at < 0 {
		t.Fatalf("payload not found in %s's record", id)
	}
	at += len(payload) / 2
	if _, err := f.WriteAt([]byte{b[at] ^ 0xff}, rec.off+int64(at)); err != nil {
		t.Fatal(err)
	}
}

// logSize returns the length of dir's log file.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestReopenServesEveryEntry(t *testing.T) {
	srv, ts := start(t)
	ids, entries := seed(t, ts.URL, "reopen", 5, 100)
	// A republished id is counted and appends nothing.
	size := logSize(t, srv.Dir())
	put(t, ts.URL+"/artifact/"+ids[0], entries[0])
	if got := logSize(t, srv.Dir()); got != size {
		t.Fatalf("republishing an indexed id grew the log %d -> %d bytes", size, got)
	}
	if st := srv.Metrics(); st.Int("puts") != 6 || st.Int("entries") != 5 || st.Int("bytes") != size {
		t.Fatalf("stats %+v, want 6 puts, 5 entries, %d bytes", st, size)
	}
	srv, ts = reopen(t, srv)
	mustServe(t, ts.URL, ids, entries)
	if st := srv.Metrics(); st.Int("entries") != 5 || st.Int("bytes") != size || st.Int("discards") != 0 {
		t.Fatalf("reopened stats %+v, want 5 entries, %d bytes, no discards", st, size)
	}
}

func TestTornTailIsCut(t *testing.T) {
	srv, ts := start(t)
	ids, entries := seed(t, ts.URL, "torn", 3, 100)
	last := indexed(srv, ids[2])
	// A crash mid-append: the last record lost its final bytes.
	path := filepath.Join(srv.Dir(), logName)
	if err := os.Truncate(path, last.off+last.size(ids[2])-7); err != nil {
		t.Fatal(err)
	}
	srv, ts = reopen(t, srv)
	mustServe(t, ts.URL, ids[:2], entries[:2])
	mustMiss(t, ts.URL, ids[2])
	if got := logSize(t, srv.Dir()); got != last.off {
		t.Fatalf("log is %d bytes after the cut, want %d", got, last.off)
	}
	// The next append starts at the cut, and survives a restart.
	put(t, ts.URL+"/artifact/"+ids[2], entries[2])
	_, ts = reopen(t, srv)
	mustServe(t, ts.URL, ids, entries)
}

func TestFlippedByteIsDiscardedAndRepublished(t *testing.T) {
	srv, ts := start(t)
	ids, entries := seed(t, ts.URL, "flip", 3, 100)
	flipPayloadByte(t, srv, ids[1], bytes.Repeat([]byte{1}, 100))
	mustMiss(t, ts.URL, ids[1])
	if st := srv.Metrics(); st.Int("discards") != 1 || st.Int("entries") != 2 {
		t.Fatalf("stats %+v, want 1 discard and 2 entries", st)
	}
	// The failed read unindexed the record, so the republish appends.
	put(t, ts.URL+"/artifact/"+ids[1], entries[1])
	mustServe(t, ts.URL, ids, entries)
	srv, ts = reopen(t, srv)
	mustServe(t, ts.URL, ids, entries)
	if st := srv.Metrics(); st.Int("discards") != 0 || st.Int("entries") != 3 {
		t.Fatalf("reopened stats %+v, want no discards and 3 entries", st)
	}
	// The bad record is dead bytes until GC compacts them away.
	size := logSize(t, srv.Dir())
	res, err := srv.GC(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.BytesFreed != indexed(srv, ids[0]).size(ids[0]) || res.BytesKept != size-res.BytesFreed {
		t.Fatalf("compaction %+v of a %d-byte log with one dead record", res, size)
	}
	mustServe(t, ts.URL, ids, entries)
}

func TestGCSizeAgeAndReadRefreshedLRU(t *testing.T) {
	srv, ts := start(t)
	ids, entries := seed(t, ts.URL, "gc", 4, 100)
	recSize := indexed(srv, ids[0]).size(ids[0])

	// Age: ids[0] was last used two hours ago.
	indexed(srv, ids[0]).used.Add(-int64(2 * time.Hour))
	res, err := srv.GC(0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 4 || res.Removed != 1 || res.BytesFreed != recSize || res.BytesKept != 3*recSize {
		t.Fatalf("age sweep %+v, want 1 of 4 removed", res)
	}
	mustMiss(t, ts.URL, ids[0])
	ids, entries = ids[1:], entries[1:]

	// Size: reading ids[0] makes ids[1] the least recently used.
	mustServe(t, ts.URL, ids[:1], entries[:1])
	if res, err = srv.GC(2*recSize, 0); err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.BytesKept != 2*recSize || logSize(t, srv.Dir()) != 2*recSize {
		t.Fatalf("size sweep %+v, want 1 removed and %d bytes kept", res, 2*recSize)
	}
	mustMiss(t, ts.URL, ids[1])
	mustServe(t, ts.URL, []string{ids[2], ids[0]}, [][]byte{entries[2], entries[0]})

	// A sweep within both bounds and with no dead bytes rewrites nothing.
	before, err := os.Stat(filepath.Join(srv.Dir(), logName))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = srv.GC(2*recSize, time.Hour); err != nil || res.Removed != 0 || res.BytesFreed != 0 {
		t.Fatalf("idle sweep %+v, %v", res, err)
	}
	after, err := os.Stat(filepath.Join(srv.Dir(), logName))
	if err != nil || !os.SameFile(before, after) {
		t.Fatalf("idle sweep replaced the log (%v)", err)
	}

	// Survivors outlive a restart in recency order: ids[0] was read
	// after ids[2], so ids[2] is evicted first.
	srv, ts = reopen(t, srv)
	mustServe(t, ts.URL, []string{ids[2], ids[0]}, [][]byte{entries[2], entries[0]})
	srv, ts = reopen(t, srv)
	if res, err = srv.GC(recSize, 0); err != nil || res.Removed != 1 {
		t.Fatalf("sweep after restart %+v, %v", res, err)
	}
	mustMiss(t, ts.URL, ids[2])
	mustServe(t, ts.URL, ids[:1], entries[:1])
}

func TestOpenRemovesCompactionLeftover(t *testing.T) {
	dir := t.TempDir()
	leftover := filepath.Join(dir, compactName)
	if err := os.WriteFile(leftover, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("compaction leftover survived the open: %v", err)
	}
}

// TestLogHammer drives PUT, GET, closure and GC at once (run it under
// -race): every answer is an entry's exact bytes or a miss, and no
// record ever fails verification.
func TestLogHammer(t *testing.T) {
	srv, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	const keys = 64
	ids := make([]string, keys)
	entries := make(map[string][]byte, keys)
	for i := range ids {
		key := artifact.KeyOf("hammer", i)
		ids[i] = key.ID()
		entries[ids[i]] = encodedEntry(t, key, bytes.Repeat([]byte{byte(i)}, 50+i*40))
	}
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := ids[(w*7+i*13)%keys]
				switch i % 3 {
				case 0:
					if rec := do(http.MethodPut, "/artifact/"+id, entries[id]); rec.Code != http.StatusNoContent {
						t.Errorf("PUT %s: %d", id, rec.Code)
					}
				case 1:
					rec := do(http.MethodGet, "/artifact/"+id, nil)
					if rec.Code == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), entries[id]) {
						t.Errorf("GET %s served wrong bytes", id)
					}
				case 2:
					rec := do(http.MethodPost, "/closure", []byte(fmt.Sprintf(`{"ids":[%q,%q]}`, id, ids[i%keys])))
					got, err := artifact.DecodeClosure(rec.Body.Bytes())
					if err != nil {
						t.Errorf("closure: %v", err)
					}
					for _, e := range got {
						if !bytes.Equal(e.Data, entries[e.ID]) {
							t.Errorf("closure served wrong bytes for %s", e.ID)
						}
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := srv.GC(4096, 0); err != nil {
				t.Errorf("gc: %v", err)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if st := srv.Metrics(); st.Int("discards") != 0 {
		t.Fatalf("hammer discarded %d entries", st.Int("discards"))
	}
	srv, err = New(srv.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for id, rec := range srv.log.index {
		if b, _, err := srv.log.get(id); err != nil || !bytes.Equal(b, entries[id]) {
			t.Errorf("after reopen %s (record at %d): %v", id, rec.off, err)
		}
	}
}

// FuzzOpenLog feeds arbitrary bytes in as a directory's log. Opening
// must not panic, must not allocate for a length the file cannot hold,
// must index only records whose checksums verify, and may only cut the
// log; a publish after opening must be served after a reopen.
func FuzzOpenLog(f *testing.F) {
	key := artifact.KeyOf("fuzz-put", 1)
	entry, err := artifact.EncodeEntry(artifact.Entry{
		Version: artifact.Version, Kind: key.Kind, Label: key.Label, Payload: []byte("payload"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv, err := New(dir)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { srv.Close() }()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(data))+1<<20 {
			t.Fatalf("opening a %d-byte log allocated %d bytes", len(data), grew)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || int64(len(kept)) != srv.log.end {
			t.Fatalf("log of %d bytes became %d (end %d), not a cut", len(data), len(kept), srv.log.end)
		}
		for id, rec := range srv.log.index {
			end := rec.off + rec.size(id)
			if rec.off < 0 || end > int64(len(kept)) || !checkRecord(kept[rec.off:end], id) {
				t.Fatalf("indexed %q at [%d, %d) is not a checksum-valid record", id, rec.off, end)
			}
		}

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/artifact/"+key.ID(), bytes.NewReader(entry)))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("PUT after open: %d", rec.Code)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if srv, err = New(dir); err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/artifact/"+key.ID(), nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), entry) {
			t.Fatalf("GET after reopen: status %d, %d bytes", rec.Code, rec.Body.Len())
		}
	})
}
