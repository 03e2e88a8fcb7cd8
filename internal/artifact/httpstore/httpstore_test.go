package httpstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/artifact/artifactd"
)

type cfg struct {
	Name string
	N    int
}

// startServer spins one artifactd over a temp dir.
func startServer(t *testing.T) (*artifactd.Server, *httptest.Server) {
	t.Helper()
	srv, err := artifactd.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// restartServer closes srv and serves its directory from a new
// artifactd, as a restart does.
func restartServer(t *testing.T, srv *artifactd.Server) (*artifactd.Server, *httptest.Server) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := artifactd.New(srv.Dir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { next.Close() })
	ts := httptest.NewServer(next.Handler())
	t.Cleanup(ts.Close)
	return next, ts
}

// The server's entry log, as artifactd writes it: records of a 12-byte
// header (id length, entry length, CRC-32C over id and entry, each a
// little-endian uint32), then the id, then the encoded entry.
const (
	logName     = "entries.log"
	headerBytes = 12
)

// serverLog returns the server's entry log.
func serverLog(t *testing.T, srv *artifactd.Server) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(srv.Dir(), logName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// logRecord frames id and entry as one record of the server's log.
func logRecord(id string, entry []byte) []byte {
	b := make([]byte, headerBytes, headerBytes+len(id)+len(entry))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(id)))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(entry)))
	b = append(append(b, id...), entry...)
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[headerBytes:], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

func client(t *testing.T, url string) *Client {
	t.Helper()
	c, err := New(url)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type blob struct {
	Words []string
	Vals  []float64
}

// TestHTTPRoundTrip is the tier's core contract: a second store
// sharing only the server URL (a remote shard) loads the first
// store's fill without computing, bit for bit.
func TestHTTPRoundTrip(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("blob", cfg{Name: "rt", N: 9})
	want := blob{Words: []string{"a", "b"}, Vals: []float64{1.5, -0.25, 1e-300}}

	a := artifact.NewWithBackend(client(t, ts.URL))
	if _, err := artifact.Get(a, key, func() (blob, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	b := artifact.NewWithBackend(client(t, ts.URL))
	got, err := artifact.Get(b, key, func() (blob, error) {
		t.Error("remote warm store executed the compute")
		return blob{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Words) != 2 || got.Words[0] != "a" || len(got.Vals) != 3 || got.Vals[2] != 1e-300 {
		t.Fatalf("HTTP round trip mangled the value: %+v", got)
	}
	if st := b.Stats(); st.Fills != 0 || st.BackendHits != 1 {
		t.Fatalf("warm store stats %+v, want 0 fills / 1 backend hit", st)
	}
	if st := srv.Metrics(); st.Int("puts") != 1 || st.Int("hits") != 1 {
		t.Fatalf("server stats %+v, want 1 put / 1 hit", st)
	}
}

// TestHTTPCorruptEntryFallsBack corrupts the server's copy in its log:
// the server must refuse to serve it (a miss) and the client must
// recompute and republish a good copy.
func TestHTTPCorruptEntryFallsBack(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("corrupt", cfg{N: 5})
	a := artifact.NewWithBackend(client(t, ts.URL))
	if _, err := artifact.Get(a, key, func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	// The log holds one record: flip the last byte of its entry.
	log := serverLog(t, srv)
	log[len(log)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(srv.Dir(), logName), log, 0o644); err != nil {
		t.Fatal(err)
	}

	b := artifact.NewWithBackend(client(t, ts.URL))
	v, err := artifact.Get(b, key, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("corrupted entry not recomputed: %d, %v", v, err)
	}
	if st := srv.Metrics(); st.Int("discards") != 1 {
		t.Fatalf("server stats %+v, want 1 discard", st)
	}

	// The recompute republished: a third store loads the good copy.
	c := artifact.NewWithBackend(client(t, ts.URL))
	if _, err := artifact.Get(c, key, func() (int, error) {
		t.Error("republished entry not loaded")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPMislabelledEntryDiscarded plants a well-formed entry under
// the wrong id server-side (what an FNV collision would look like):
// the server refuses to serve it, and a direct client download of a
// mislabelled entry is rejected by the store's own verification.
func TestHTTPMislabelledEntryDiscarded(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("label", cfg{N: 1})
	other := artifact.KeyOf("label", cfg{N: 2})
	a := artifact.NewWithBackend(client(t, ts.URL))
	if _, err := artifact.Get(a, other, func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	// Re-address other's entry to key's id, checksum and all, and
	// restart the server on that log.
	entry := serverLog(t, srv)[headerBytes+len(other.ID()):]
	if err := os.WriteFile(filepath.Join(srv.Dir(), logName), logRecord(key.ID(), entry), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts = restartServer(t, srv)

	b := artifact.NewWithBackend(client(t, ts.URL))
	v, err := artifact.Get(b, key, func() (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("mislabelled entry was trusted: %d, %v", v, err)
	}
	if st := srv.Metrics(); st.Int("discards") == 0 {
		t.Fatalf("server stats %+v, want a discard", st)
	}
}

// TestHTTPRejectsMislabelledUpload PUTs an entry under an id its
// identity does not hash to: the server must reject it and store
// nothing — one shard cannot poison another's keys.
func TestHTTPRejectsMislabelledUpload(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("poison", cfg{N: 1})
	victim := artifact.KeyOf("poison", cfg{N: 2})
	entry, err := artifact.EncodeEntry(artifact.Entry{
		Version: artifact.Version, Kind: key.Kind, Label: key.Label, Payload: []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := client(t, ts.URL)
	c.Put(victim.ID(), entry)
	if st := c.Stats(); st.Puts != 0 || st.Errors != 1 {
		t.Fatalf("client stats %+v, want the put counted as an error", st)
	}
	// One reject: a 400 is final, never retried.
	if st := srv.Metrics(); st.Int("rejects") != 1 || st.Int("puts") != 0 {
		t.Fatalf("server stats %+v, want 1 reject / 0 puts", st)
	}
	if st := srv.Metrics(); st.Int("entries") != 0 || bytes.Contains(serverLog(t, srv), []byte(victim.ID())) {
		t.Fatal("rejected upload reached the entry log")
	}
}

// TestHTTPServerDownDegradesToCompute points a store at a dead server:
// every fill computes, nothing errors out to the caller.
func TestHTTPServerDownDegradesToCompute(t *testing.T) {
	_, ts := startServer(t)
	url := ts.URL
	ts.Close()
	s := artifact.NewWithBackend(client(t, url))
	v, err := artifact.Get(s, artifact.KeyOf("down", cfg{N: 3}), func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("dead server broke the fill: %d, %v", v, err)
	}
	if st := s.Stats(); st.Fills != 1 || st.BackendHits != 0 {
		t.Fatalf("stats %+v, want 1 fill / 0 backend hits", st)
	}
}

// TestChainPromotesRemoteHits chains a disk tier in front of the HTTP
// tier (the CLIs' -cache-dir + -store-url mode): a remote hit is
// promoted into the local tier, so the next cold process reads purely
// from disk.
func TestChainPromotesRemoteHits(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("chain", cfg{N: 7})
	remoteOnly := artifact.NewWithBackend(client(t, ts.URL))
	if _, err := artifact.Get(remoteOnly, key, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}

	localDir := t.TempDir()
	chained, err := OpenStore(localDir, ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Get(chained, key, func() (int, error) {
		t.Error("chained store recomputed a remotely cached artefact")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(localDir, key.ID()+".gob")); err != nil {
		t.Fatal("remote hit was not promoted into the local tier")
	}

	// A fresh chained store now hits disk without touching the server.
	gets := srv.Metrics().Int("gets")
	again, err := OpenStore(localDir, ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Get(again, key, func() (int, error) {
		t.Error("promoted entry not read from disk")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Int("gets"); got != gets {
		t.Fatalf("local hit still queried the server (%d -> %d gets)", gets, got)
	}
}

// TestChainPutWritesAllTiers pins the other half of the chain
// contract: a fresh fill publishes to the local tier and the server.
func TestChainPutWritesAllTiers(t *testing.T) {
	srv, ts := startServer(t)
	localDir := t.TempDir()
	chained, err := OpenStore(localDir, ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.KeyOf("chain-put", cfg{N: 8})
	if _, err := artifact.Get(chained, key, func() (int, error) { return 8, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(localDir, key.ID()+".gob")); err != nil {
		t.Fatal("fill missing from the local tier")
	}
	if st := srv.Metrics(); st.Int("entries") != 1 || !bytes.Contains(serverLog(t, srv), []byte(key.ID())) {
		t.Fatal("fill missing from the server")
	}
	if st := srv.Metrics(); st.Int("puts") != 1 {
		t.Fatalf("server stats %+v, want 1 put", st)
	}
}

func TestNewRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"ftp://host/x", "host:9444", ""} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	if _, err := OpenStore("", "", ""); err == nil {
		t.Error("OpenStore with no tiers accepted")
	}
}

// TestClientTokenAuth proves the client side of bearer auth: a
// tokenless client degrades to compute-everything against a token'd
// server (and publishes nothing), while a token'd client round-trips
// and a second one reads the entry back without recomputation.
func TestClientTokenAuth(t *testing.T) {
	srv, ts := startServer(t)
	srv.SetToken("sesame")
	key := artifact.KeyOf("auth-blob", cfg{"a", 1})
	want := blob{Words: []string{"x", "y"}, Vals: []float64{1, 2}}

	tokenless := client(t, ts.URL)
	st := artifact.NewWithBackend(tokenless)
	got, err := artifact.Get(st, key, func() (blob, error) { return want, nil })
	if err != nil || len(got.Words) != 2 {
		t.Fatalf("tokenless fill failed: %v", err)
	}
	if cs := tokenless.Stats(); cs.Puts != 0 || cs.Errors == 0 {
		t.Fatalf("tokenless client stats %+v: want zero puts, some errors", cs)
	}
	if ss := srv.Metrics(); ss.Int("puts") != 0 {
		t.Fatal("tokenless client published through auth")
	}

	writer := client(t, ts.URL)
	writer.Token = "sesame"
	if _, err := artifact.Get(artifact.NewWithBackend(writer), key,
		func() (blob, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if ss := srv.Metrics(); ss.Int("puts") != 1 {
		t.Fatalf("server puts %d, want 1", ss.Int("puts"))
	}

	reader := client(t, ts.URL)
	reader.Token = "sesame"
	cold := artifact.NewWithBackend(reader)
	got, err = artifact.Get(cold, key, func() (blob, error) {
		t.Fatal("authorized reader recomputed")
		return blob{}, nil
	})
	if err != nil || got.Words[1] != "y" {
		t.Fatalf("authorized read failed: %v", err)
	}
}

// TestClientTokenFromEnv checks New picks up $REPRO_STORE_TOKEN.
func TestClientTokenFromEnv(t *testing.T) {
	t.Setenv(TokenEnv, "envtoken")
	c := client(t, "http://localhost:1")
	if c.Token != "envtoken" {
		t.Fatalf("Token = %q, want env default", c.Token)
	}
}

// TestGzipRoundTripShrinksWire checks entries cross the wire
// compressed in both directions and verification still passes.
func TestGzipRoundTripShrinksWire(t *testing.T) {
	srv, ts := startServer(t)
	key := artifact.KeyOf("zip-blob", cfg{"z", 2})
	// Repetitive payload, as gob-encoded curves and profiles are.
	big := blob{}
	for i := 0; i < 2000; i++ {
		big.Words = append(big.Words, "repetitive-token")
		big.Vals = append(big.Vals, 0.5)
	}

	writer := client(t, ts.URL)
	if _, err := artifact.Get(artifact.NewWithBackend(writer), key,
		func() (blob, error) { return big, nil }); err != nil {
		t.Fatal(err)
	}
	entrySize := int64(len(serverLog(t, srv)) - headerBytes - len(key.ID()))
	ss := srv.Metrics()
	if ss.Int("put_bytes") >= entrySize/2 {
		t.Fatalf("gzip PUT moved %d wire bytes for a %d-byte entry", ss.Int("put_bytes"), entrySize)
	}

	reader := client(t, ts.URL)
	got, err := artifact.Get(artifact.NewWithBackend(reader), key, func() (blob, error) {
		t.Fatal("remote hit recomputed")
		return blob{}, nil
	})
	if err != nil || len(got.Words) != 2000 || got.Words[1999] != "repetitive-token" {
		t.Fatalf("gzip GET round trip failed: %v", err)
	}
	ss = srv.Metrics()
	if ss.Int("served_bytes") >= entrySize/2 {
		t.Fatalf("gzip GET moved %d wire bytes for a %d-byte entry", ss.Int("served_bytes"), entrySize)
	}
}

// TestOpenStoreToken threads the CLI flag through to the client tier.
func TestOpenStoreToken(t *testing.T) {
	srv, ts := startServer(t)
	srv.SetToken("sesame")
	key := artifact.KeyOf("openstore-auth", cfg{"o", 3})

	authed, err := OpenStore("", ts.URL, "sesame")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Get(authed, key, func() (int, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	if ss := srv.Metrics(); ss.Int("puts") != 1 {
		t.Fatalf("authed OpenStore did not publish (puts %d)", ss.Int("puts"))
	}
}

// TestFetchAllBulkClosure pins the prefetch wire path end to end: a
// producer publishes a closure of entries, a cold consumer stages them
// with one POST /closure and then fills every key without a single
// per-key GET.
func TestFetchAllBulkClosure(t *testing.T) {
	srv, ts := startServer(t)
	producer := artifact.NewWithBackend(client(t, ts.URL))
	keys := make([]artifact.Key, 10)
	for i := range keys {
		keys[i] = artifact.KeyOf("closure", cfg{Name: "bulk", N: i})
		i := i
		if _, err := artifact.Get(producer, keys[i], func() (blob, error) {
			return blob{Vals: []float64{float64(i)}}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	c := client(t, ts.URL)
	consumer := artifact.NewWithBackend(c)
	if !consumer.BulkCapable() {
		t.Fatal("httpstore client not bulk-capable")
	}
	if n := consumer.Prefetch(keys); n != 10 {
		t.Fatalf("prefetched %d of 10", n)
	}
	for i, k := range keys {
		v, err := artifact.Get(consumer, k, func() (blob, error) {
			t.Fatalf("key %d recomputed despite prefetch", i)
			return blob{}, nil
		})
		if err != nil || v.Vals[0] != float64(i) {
			t.Fatalf("key %d: %+v err=%v", i, v, err)
		}
	}
	cs := c.Stats()
	if cs.Gets != 0 {
		t.Fatalf("consumer issued %d per-key GETs after bulk prefetch", cs.Gets)
	}
	if cs.BulkGets != 1 || cs.BulkEntries != 10 {
		t.Fatalf("bulk stats: %+v", cs)
	}
	ss := srv.Metrics()
	if ss.Int("closure_requests") != 1 || ss.Int("closure_served") != 10 {
		t.Fatalf("server closure stats: %+v", ss)
	}
}

// TestFetchAllMissesAreAbsent pins the degradation contract: unknown
// ids are simply missing from the result, and the store falls back to
// computing them.
func TestFetchAllMissesAreAbsent(t *testing.T) {
	_, ts := startServer(t)
	c := client(t, ts.URL)
	got := c.FetchAll([]string{"nosuch-0000000000000000"})
	if len(got) != 0 {
		t.Fatalf("missing ids returned entries: %v", got)
	}
	st := artifact.NewWithBackend(c)
	key := artifact.KeyOf("closure", cfg{Name: "missing", N: 1})
	st.Prefetch([]artifact.Key{key})
	v, err := artifact.Get(st, key, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("fallback compute: v=%d err=%v", v, err)
	}
}
