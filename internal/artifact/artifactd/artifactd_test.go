package artifactd

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/artifact"
)

func start(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func encodedEntry(t *testing.T, key artifact.Key, payload []byte) []byte {
	t.Helper()
	b, err := artifact.EncodeEntry(artifact.Entry{
		Version: artifact.Version, Kind: key.Kind, Label: key.Label, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func put(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestPutGetHead(t *testing.T) {
	srv, ts := start(t)
	key := artifact.KeyOf("wire", map[string]int{"n": 1})
	entry := encodedEntry(t, key, []byte("payload"))
	url := ts.URL + "/artifact/" + key.ID()

	if resp := put(t, url, entry); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status %d, want 204", resp.StatusCode)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, entry) {
		t.Fatalf("GET status %d, %d bytes; want 200 with the %d uploaded bytes",
			resp.StatusCode, len(b), len(entry))
	}
	missing, err := http.Get(ts.URL + "/artifact/wire-0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of a missing id returned %d, want 404", missing.StatusCode)
	}
	// No client probes with HEAD; the server refuses it.
	head, err := http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("HEAD status %d, want 405", head.StatusCode)
	}
	if st := srv.Metrics(); st.Int("puts") != 1 || st.Int("hits") != 1 || st.Int("misses") != 1 {
		t.Fatalf("stats %+v, want 1 put / 1 hit / 1 miss", st)
	}
}

func TestMalformedIDsRejected(t *testing.T) {
	_, ts := start(t)
	for _, id := range []string{
		"", "noslash", "UPPER-0123456789abcdef", "kind-123", "kind-0123456789abcdeff",
		"..%2f..%2fetc%2fpasswd-0123456789abcdef", "a/b-0123456789abcdef",
	} {
		resp, err := http.Get(ts.URL + "/artifact/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Errorf("id %q: status %d, want a rejection", id, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusOK {
			t.Errorf("id %q was served", id)
		}
	}
}

func TestPutGarbageRejected(t *testing.T) {
	srv, ts := start(t)
	key := artifact.KeyOf("garbage", 1)
	url := ts.URL + "/artifact/" + key.ID()
	if resp := put(t, url, []byte("not an entry")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT status %d, want 400", resp.StatusCode)
	}
	// Wrong-version entries are rejected too.
	stale, err := artifact.EncodeEntry(artifact.Entry{
		Version: artifact.Version + 1, Kind: key.Kind, Label: key.Label, Payload: []byte("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp := put(t, url, stale); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale-version PUT status %d, want 400", resp.StatusCode)
	}
	if st := srv.Metrics(); st.Int("rejects") != 2 || st.Int("puts") != 0 {
		t.Fatalf("stats %+v, want 2 rejects / 0 puts", st)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := start(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"gets", "hits", "misses", "puts", "rejects", "discards"} {
		if _, ok := stats[field]; !ok {
			t.Errorf("stats missing %q: %v", field, stats)
		}
	}
}

func TestBearerTokenAuth(t *testing.T) {
	srv, ts := start(t)
	srv.SetToken("sesame")
	key := artifact.KeyOf("auth", 1)
	entry := encodedEntry(t, key, []byte("payload"))
	url := ts.URL + "/artifact/" + key.ID()

	// Unauthenticated PUT and GET are both refused 401.
	if resp := put(t, url, entry); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless PUT status %d, want 401", resp.StatusCode)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless GET status %d, want 401", resp.StatusCode)
	}

	// A wrong token is refused too.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token GET status %d, want 401", resp.StatusCode)
	}

	// The right token round-trips.
	req, _ = http.NewRequest(http.MethodPut, url, bytes.NewReader(entry))
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("authorized PUT status %d, want 204", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, entry) {
		t.Fatalf("authorized GET status %d", resp.StatusCode)
	}

	// Probes stay open; the refusals were counted.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth: status %d", resp.StatusCode)
	}
	if st := srv.Metrics(); st.Int("unauthorized") != 3 {
		t.Fatalf("unauthorized count %d, want 3", st.Int("unauthorized"))
	}
}

func TestGzipWire(t *testing.T) {
	srv, ts := start(t)
	// A repetitive payload, like gob output.
	payload := bytes.Repeat([]byte("sweep-curve-payload "), 400)
	key := artifact.KeyOf("zip", 7)
	entry := encodedEntry(t, key, payload)
	url := ts.URL + "/artifact/" + key.ID()

	// Gzip PUT: compressed body with Content-Encoding.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(entry)
	zw.Close()
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(buf.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("gzip PUT status %d, want 204", resp.StatusCode)
	}
	if st := srv.Metrics(); st.Int("put_bytes") != int64(buf.Len()) {
		t.Fatalf("PutBytes %d, want compressed size %d", st.Int("put_bytes"), buf.Len())
	}

	// Plain GET returns the raw entry (stored form is uncompressed).
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept-Encoding", "identity")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(plain, entry) {
		t.Fatal("plain GET did not return the raw entry")
	}

	// Gzip GET: compressed on the wire, identical after expansion.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("gzip GET not gzip-encoded")
	}
	if len(wire) >= len(entry) {
		t.Fatalf("wire bytes %d not smaller than entry %d", len(wire), len(entry))
	}
	zr, err := gzip.NewReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(expanded, entry) {
		t.Fatal("gzip GET payload does not expand to the entry")
	}

	// A corrupt gzip PUT is rejected, not stored.
	req, _ = http.NewRequest(http.MethodPut, url, strings.NewReader("not gzip at all"))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt gzip PUT status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, ts := start(t)
	key := artifact.KeyOf("prom", 3)
	put(t, ts.URL+"/artifact/"+key.ID(), encodedEntry(t, key, []byte("x")))
	resp, err := http.Get(ts.URL + "/artifact/" + key.ID())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE artifactd_gets_total counter",
		"artifactd_gets_total 1",
		"artifactd_puts_total 1",
		"artifactd_hits_total 1",
		"# HELP artifactd_served_bytes_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	_ = srv
}

// postClosure issues one POST /closure for ids.
func postClosure(t *testing.T, url string, ids []string, headers map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string][]string{"ids": ids})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/closure", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestClosureServesVerifiedEntriesInRequestOrder(t *testing.T) {
	srv, ts := start(t)
	keys := make([]artifact.Key, 3)
	ids := make([]string, 3)
	for i := range keys {
		keys[i] = artifact.KeyOf("cl", map[string]int{"n": i})
		ids[i] = keys[i].ID()
		resp := put(t, ts.URL+"/artifact/"+ids[i], encodedEntry(t, keys[i], []byte{byte(i)}))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed put %d: %d", i, resp.StatusCode)
		}
	}
	// Overwrite the middle entry with garbage: it must be silently absent.
	overwrite(srv, ids[1], []byte("garbage"))

	resp := postClosure(t, ts.URL, []string{ids[2], ids[1], ids[0], ids[0]}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("closure status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := artifact.DecodeClosure(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ID != ids[2] || entries[1].ID != ids[0] {
		t.Fatalf("closure entries: %+v", entries)
	}
	st := srv.Metrics()
	if st.Int("closure_requests") != 1 || st.Int("closure_served") != 2 || st.Int("discards") != 1 {
		t.Fatalf("closure stats: %+v", st)
	}
}

func TestClosureGzipTransport(t *testing.T) {
	_, ts := start(t)
	key := artifact.KeyOf("clz", map[string]int{"n": 0})
	put(t, ts.URL+"/artifact/"+key.ID(), encodedEntry(t, key, bytes.Repeat([]byte("abc"), 500)))
	resp := postClosure(t, ts.URL, []string{key.ID()}, map[string]string{"Accept-Encoding": "gzip"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("status %d encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := artifact.DecodeClosure(body)
	if err != nil || len(entries) != 1 {
		t.Fatalf("gzip closure: %d entries, err=%v", len(entries), err)
	}
}

func TestClosureRejectsBadRequests(t *testing.T) {
	_, ts := start(t)
	// Malformed id.
	if resp := postClosure(t, ts.URL, []string{"../etc/passwd"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal id: %d", resp.StatusCode)
	}
	// Not JSON.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/closure", strings.NewReader("not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/closure")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET closure: %d", getResp.StatusCode)
	}
}

func TestClosureRequiresToken(t *testing.T) {
	srv, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetToken("sekrit")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp := postClosure(t, ts.URL, []string{"a-0000000000000000"}, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless closure: %d", resp.StatusCode)
	}
	ok := postClosure(t, ts.URL, []string{"a-0000000000000000"},
		map[string]string{"Authorization": "Bearer sekrit"})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("authenticated closure: %d", ok.StatusCode)
	}
}
