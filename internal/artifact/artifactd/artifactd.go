// Package artifactd implements the artifact store's network tier: the
// HTTP server behind cmd/artifactd, publishing one directory's entries
// to any number of remote shards (internal/artifact/httpstore
// clients). The server keeps the entries in one append-only log in
// that directory, entries.log, indexed in memory (see log.go); a
// publish appends one record instead of creating a file.
//
// Endpoints:
//
//	GET  /artifact/{id}  one encoded entry (artifact.Entry gob), 404 on
//	                     miss or on an entry that fails verification
//	PUT  /artifact/{id}  publish an entry; 400 unless the entry's
//	                     recorded identity (version, kind, label)
//	                     hashes to {id}
//	POST /closure        bulk download: {"ids": [...]} answered with
//	                     one encoded body holding every named entry
//	                     the server has and can verify — a cold peer's
//	                     single round trip instead of a GET per key
//	GET  /stats          counters as JSON (gets, hits, misses, puts,
//	                     rejects, discards, ...) and the gauges entries
//	                     (indexed entries) and bytes (the log's length)
//	GET  /metrics        the same metrics in Prometheus text format
//	GET  /healthz        liveness probe, "ok"
//
// With a bearer token configured (SetToken / artifactd -token), every
// artifact operation — GET and PUT — requires a matching
// "Authorization: Bearer <token>" header and is answered 401
// otherwise; /stats, /metrics and /healthz stay open for probes and
// scrapers. Entry payloads cross the wire gzip-compressed when the
// peer advertises it (Accept-Encoding on GET, Content-Encoding on
// PUT); gob-encoded entries are repetitive, so this typically shrinks
// wire bytes several-fold while the logged form stays raw.
//
// Verification happens on both ends of the wire: the server decodes
// every uploaded entry and rejects ids that don't match the recorded
// identity (so one shard can never poison another's keys with a
// mislabelled upload), re-verifies entries on the way out (a record
// that fails its checksum or its identity check is reported as a miss
// and unindexed, costing the client a recomputation and a republish,
// never a wrong result), and the client-side store verifies every
// entry it downloads against the key it asked for.
package artifactd

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/telemetry"
)

// maxEntryBytes caps an entry's size on the wire, raw or expanded
// from gzip (artifact.MaxWireEntryBytes — shared with the client so
// anything storable is also servable, and a gzip bomb cannot buy a
// large allocation with a tiny body).
const maxEntryBytes = artifact.MaxWireEntryBytes

// idPattern matches well-formed entry ids: "<kind>-<16 hex>", with
// kinds drawn from [a-z0-9-]. Anything else — path traversal attempts
// included — is rejected before touching the log.
var idPattern = regexp.MustCompile(`^[a-z0-9-]{1,128}-[0-9a-f]{16}$`)

// Server serves one directory's entry log. Construct with New.
type Server struct {
	log   *entryLog
	token string

	gets, hits, misses      atomic.Int64
	puts, rejects, discards atomic.Int64
	putBytes, servedBytes   atomic.Int64
	unauthorized            atomic.Int64
	closureReqs             atomic.Int64
	closureServed           atomic.Int64
}

// SetToken requires "Authorization: Bearer token" on every artifact
// operation (GET/PUT). An empty token (the default) leaves the
// server open — appropriate only on a trusted network. Call before
// serving.
func (s *Server) SetToken(token string) { s.token = token }

// authorized reports whether r carries the configured bearer token.
func (s *Server) authorized(r *http.Request) bool {
	if s.token == "" {
		return true
	}
	auth, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(auth), []byte(s.token)) == 1
}

// New returns a server over the directory dir (created if absent),
// with every record of its log whose checksum verifies indexed. An
// older server's per-entry <id>.gob files in dir are not read.
func New(dir string) (*Server, error) {
	l, err := openLog(dir)
	if err != nil {
		return nil, err
	}
	return &Server{log: l}, nil
}

// Dir returns the served directory.
func (s *Server) Dir() string { return s.log.dir }

// GC sweeps the log under artifact.GC's policy over each entry's last
// write or serve: entries unused for longer than maxAge go, then the
// least recently used until the log fits maxBytes (a zero bound is
// unbounded). Survivors are rewritten oldest use first, so their
// recency outlives a restart. Eviction is safe at any moment: an
// evicted entry is recomputed by the next client that needs it.
func (s *Server) GC(maxBytes int64, maxAge time.Duration) (artifact.GCResult, error) {
	return s.log.gc(maxBytes, maxAge)
}

// Close closes the log. The server must not serve afterwards.
func (s *Server) Close() error { return s.log.close() }

// Metrics snapshots the server's counters: the one declaration behind
// both GET /stats and GET /metrics. CI reads puts from /stats to prove a
// warm pass recomputed nothing (it adds no puts).
func (s *Server) Metrics() telemetry.List {
	entries, bytes := s.log.stats()
	return telemetry.List{
		telemetry.Counter("gets", "artifactd_gets_total", "Artifact lookups received.", s.gets.Load()),
		telemetry.Counter("hits", "artifactd_hits_total", "Lookups answered with an entry.", s.hits.Load()),
		telemetry.Counter("misses", "artifactd_misses_total", "Lookups answered 404.", s.misses.Load()),
		telemetry.Counter("puts", "artifactd_puts_total", "Entry publishes accepted.", s.puts.Load()),
		telemetry.Counter("rejects", "artifactd_rejects_total", "Uploads refused by identity verification.", s.rejects.Load()),
		telemetry.Counter("discards", "artifactd_discards_total", "Stored entries that failed verification on read.", s.discards.Load()),
		telemetry.Counter("put_bytes", "artifactd_put_bytes_total", "Wire bytes received in accepted publishes.", s.putBytes.Load()),
		telemetry.Counter("served_bytes", "artifactd_served_bytes_total", "Wire bytes sent serving entries.", s.servedBytes.Load()),
		telemetry.Counter("unauthorized", "artifactd_unauthorized_total", "Artifact requests refused for a bad bearer token.", s.unauthorized.Load()),
		telemetry.Counter("closure_requests", "artifactd_closure_requests_total", "Bulk closure downloads served.", s.closureReqs.Load()),
		telemetry.Counter("closure_served", "artifactd_closure_served_total", "Entries returned by closure downloads.", s.closureServed.Load()),
		telemetry.Gauge("entries", "artifactd_entries", "Entries indexed in the log.", int64(entries)),
		telemetry.Gauge("bytes", "artifactd_bytes", "Length of the entry log in bytes, dead records included.", bytes),
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/artifact/", s.handleArtifact)
	mux.HandleFunc("/closure", s.handleClosure)
	mux.HandleFunc("/stats", telemetry.JSONHandler(s.Metrics))
	mux.HandleFunc("/metrics", telemetry.PrometheusHandler(s.Metrics))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		s.unauthorized.Add(1)
		w.Header().Set("WWW-Authenticate", "Bearer")
		http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
		return
	}
	id := r.URL.Path[len("/artifact/"):]
	if !idPattern.MatchString(id) {
		http.Error(w, "malformed artifact id", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.serve(w, r, id)
	case http.MethodPut:
		s.accept(w, r, id)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// load reads id's entry and re-verifies it: the record's checksum,
// then the entry's decode, version and identity. An entry that fails
// (bit rot, a mislabelled record) counts a discard and is unindexed,
// so the client's republish appends a good copy; like a plain miss it
// returns false.
func (s *Server) load(id string) ([]byte, bool) {
	b, rec, err := s.log.get(id)
	if rec == nil {
		return nil, false
	}
	if err == nil {
		if e, err := artifact.DecodeEntry(b); err == nil && e.Version == artifact.Version && e.Key().ID() == id {
			return b, true
		}
	}
	s.discards.Add(1)
	s.log.drop(id, rec)
	return nil, false
}

// serve answers GET: it loads, re-verifies and sends. An entry that
// fails verification is a miss — the client recomputes and
// republishes a good copy.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, id string) {
	s.gets.Add(1)
	b, ok := s.load(id)
	if !ok {
		s.misses.Add(1)
		http.NotFound(w, r)
		return
	}
	s.hits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	// Compress on the wire when the client accepts it; the log keeps
	// the raw entry. The entry is compressed into a buffer first — wire
	// bytes are counted exactly and Content-Length stays correct.
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		zb := artifact.GzipBytes(b)
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Length", strconv.Itoa(len(zb)))
		s.servedBytes.Add(int64(len(zb)))
		w.Write(zb)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	s.servedBytes.Add(int64(len(b)))
	w.Write(b)
}

// accept answers PUT: decode, verify the recorded identity hashes to
// the addressed id, append to the log. A gzip Content-Encoding is
// unwrapped first (wire bytes are counted compressed; the stored form
// is always the raw encoded entry, so mixed-transport clients share
// entries transparently).
func (s *Server) accept(w http.ResponseWriter, r *http.Request, id string) {
	wire, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		s.rejects.Add(1)
		http.Error(w, "unreadable body", http.StatusBadRequest)
		return
	}
	b := wire
	if r.Header.Get("Content-Encoding") == "gzip" {
		b, err = artifact.GunzipBytes(wire)
		if err != nil {
			s.rejects.Add(1)
			http.Error(w, "bad gzip body", http.StatusBadRequest)
			return
		}
	}
	e, err := artifact.DecodeEntry(b)
	if err != nil {
		s.rejects.Add(1)
		http.Error(w, "body is not an encoded artifact entry", http.StatusBadRequest)
		return
	}
	if e.Version != artifact.Version {
		s.rejects.Add(1)
		http.Error(w, fmt.Sprintf("entry format v%d, server speaks v%d", e.Version, artifact.Version),
			http.StatusBadRequest)
		return
	}
	if got := e.Key().ID(); got != id {
		s.rejects.Add(1)
		http.Error(w, fmt.Sprintf("entry identity hashes to %s, addressed as %s", got, id),
			http.StatusBadRequest)
		return
	}
	s.log.put(id, b)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(wire)))
	w.WriteHeader(http.StatusNoContent)
}

// handleClosure answers POST /closure: a JSON body {"ids": [...]}
// names the entries a cold peer wants, and the response is one
// artifact.EncodeClosure body holding every named entry the server has
// and can verify (in request order; misses and corrupt entries are
// simply absent — the peer recomputes them, exactly as with a per-key
// miss). One round trip replaces hundreds of per-key GETs when a fresh
// shard or serving instance warms up. Requires the bearer token like
// any artifact operation, and compresses like a single GET when the
// peer accepts gzip.
func (s *Server) handleClosure(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		s.unauthorized.Add(1)
		w.Header().Set("WWW-Authenticate", "Bearer")
		http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		IDs []string `json:"ids"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil || json.Unmarshal(body, &req) != nil {
		http.Error(w, "body is not a JSON id list", http.StatusBadRequest)
		return
	}
	if len(req.IDs) > artifact.MaxClosureIDs {
		http.Error(w, fmt.Sprintf("closure of %d ids exceeds %d", len(req.IDs), artifact.MaxClosureIDs),
			http.StatusBadRequest)
		return
	}
	for _, id := range req.IDs {
		if !idPattern.MatchString(id) {
			http.Error(w, "malformed artifact id "+id, http.StatusBadRequest)
			return
		}
	}
	s.closureReqs.Add(1)
	entries := make([]artifact.ClosureEntry, 0, len(req.IDs))
	seen := make(map[string]bool, len(req.IDs))
	total := 0
	for _, id := range req.IDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		b, ok := s.load(id)
		if !ok {
			continue
		}
		if total+len(b) > artifact.MaxWireClosureBytes {
			// Response full: the remaining ids fall back to per-key
			// reads on the client, which is merely slower, never wrong.
			break
		}
		total += len(b)
		entries = append(entries, artifact.ClosureEntry{ID: id, Data: b})
	}
	s.closureServed.Add(int64(len(entries)))
	payload, err := artifact.EncodeClosure(entries)
	if err != nil {
		http.Error(w, "closure encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		zb := artifact.GzipBytes(payload)
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Length", strconv.Itoa(len(zb)))
		s.servedBytes.Add(int64(len(zb)))
		w.Write(zb)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	s.servedBytes.Add(int64(len(payload)))
	w.Write(payload)
}
