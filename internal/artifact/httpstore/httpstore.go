// Package httpstore is the artifact store's network backend: an
// artifact.Backend that reads and publishes encoded entries against a
// cmd/artifactd server, so shards on different machines share one
// cache and merge to byte-identical output.
//
// Wire protocol (see also internal/artifact/artifactd):
//
//	GET  {base}/artifact/{id}  -> 200 + encoded entry | 404 miss
//	PUT  {base}/artifact/{id}  <- gzip-compressed encoded entry; 204,
//	                              or 400 if the entry's recorded
//	                              identity does not hash to {id}
//	POST {base}/closure        <- {"ids": [...]}; 200 + every entry
//	                              the server has
//
// Client and server are built from one source tree. An older server
// without gzip uploads rejects every PUT, and one without the closure
// endpoint answers it with an error, after which the store reads per
// key: mixed versions share less, but never yield a wrong byte.
//
// Entries stay in the store's self-describing envelope
// (artifact.Entry), so identity is verified on both ends: the server
// rejects mislabelled uploads and re-verifies on read, and the client
// store verifies every downloaded entry against the key it asked for
// before trusting the payload. A corrupted or mislabelled entry —
// wherever it came from — costs a recomputation, never correctness.
//
// Every operation is best-effort: an unreachable or failing server
// degrades the store to compute-everything, it never breaks a run.
//
// Resilience: every operation runs under a retry.Policy (transient
// transport errors, 5xx answers and truncated bodies are retried with
// capped exponential backoff; 404s and auth/validation rejections are
// not), and a client-level circuit breaker tracks consecutive
// transport-level failures — a down backend trips it open, after
// which operations return instant misses (no dials, no buffering)
// until a half-open probe finds the server again. The breaker state
// is the store's degraded signal (Health), surfaced by reprod as
// store_degraded/readyz.
package httpstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/retry"
)

// TokenEnv is the environment variable New reads the default bearer
// token from, so every CLI pointed at an authenticated artifactd works
// without repeating -store-token.
const TokenEnv = "REPRO_STORE_TOKEN"

// maxEntryBytes caps a downloaded entry, raw or expanded from gzip
// (artifact.MaxWireEntryBytes — shared with the server, so anything
// it can store this client can load, and a hostile or broken server
// cannot turn a small wire body into a huge allocation here).
const maxEntryBytes = artifact.MaxWireEntryBytes

// Client is an artifact.Backend over an artifactd server.
type Client struct {
	base string
	// HTTP is the underlying client; replaceable before first use
	// (tests inject httptest clients, deployments tune timeouts).
	// There is deliberately no whole-request timeout: connection
	// establishment is bounded per phase by the shared transport
	// (DialTimeout, ResponseHeaderTimeout), so a long bulk fetch
	// streaming real bytes never races a wall clock.
	HTTP *http.Client
	// Token, when non-empty, is sent as "Authorization: Bearer" on
	// every request — required by artifactd servers started with
	// -token. New initializes it from $REPRO_STORE_TOKEN; set it
	// before first use to override.
	Token string
	// Retry bounds per-operation retries; replaceable before first
	// use. The zero policy means retry.DefaultPolicy.
	Retry retry.Policy
	// Breaker is the client-level circuit breaker fed by
	// transport-level failures. Replaceable before first use (tests
	// shorten the cooldown); nil disables breaking.
	Breaker *retry.Breaker

	gets, hits, puts, errs atomic.Int64
	bulkGets, bulkEntries  atomic.Int64
	retries, skipped       atomic.Int64
}

// Per-phase connection timeouts on the shared transport. They replace
// the old 60s whole-request cap: an unreachable server fails at dial
// or first-byte time, while an entry that genuinely streams for
// minutes is never cut off mid-body.
const (
	DialTimeout           = 5 * time.Second
	ResponseHeaderTimeout = 30 * time.Second
)

// New returns a backend talking to the artifactd server at baseURL
// (e.g. "http://cachehost:9444"), authenticating with
// $REPRO_STORE_TOKEN when set.
func New(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("httpstore: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("httpstore: unsupported store URL %q (want http:// or https://)", baseURL)
	}
	return &Client{
		base:    strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Transport: SharedTransport()},
		Token:   os.Getenv(TokenEnv),
		Breaker: &retry.Breaker{},
	}, nil
}

// sharedTransport is the one connection pool every Client — and
// reprod's fleet proxy — rides on. http.DefaultTransport keeps only 2
// idle connections per host, which under a request flood (a reprod
// fleet hammering one artifactd, replicas proxying to one home peer)
// degenerates into a dial per request; this pool keeps enough per-peer
// keep-alives for a whole coalescing stampede to reuse warm
// connections.
var sharedTransport = func() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		t = &http.Transport{}
	}
	t = t.Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.DialContext = (&net.Dialer{Timeout: DialTimeout, KeepAlive: 30 * time.Second}).DialContext
	t.ResponseHeaderTimeout = ResponseHeaderTimeout
	return t
}()

// SharedTransport returns the process-wide pooled transport shared by
// every httpstore Client and any other intra-fleet HTTP traffic (the
// reprod proxy), so per-peer connections are reused rather than
// redialed per request.
func SharedTransport() *http.Transport { return sharedTransport }

// URL returns the artefact endpoint for id.
func (c *Client) URL(id string) string { return c.base + "/artifact/" + id }

// Error classification for the retry policy: transport errors and
// mangled bodies may heal (retry), 5xx answers are the server's own
// transient failures (retry), everything the server said on purpose —
// 404 miss, 401/403 auth, 400 validation — is permanent.
var errNotFound = errors.New("httpstore: not found")

// transportError marks failures where no HTTP response arrived at
// all — the only kind that feeds the circuit breaker.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

// statusError is a non-2xx answer that isn't one of the expected
// protocol outcomes.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("httpstore: server answered %d", e.code) }

func retryableErr(err error) bool {
	var s statusError
	if errors.As(err, &s) {
		return s.code/100 == 5 || s.code == http.StatusTooManyRequests
	}
	return !errors.Is(err, errNotFound)
}

// policy returns the effective retry policy with the classifier
// attached.
func (c *Client) policy() retry.Policy {
	p := c.Retry
	if p.MaxAttempts == 0 && p.BaseDelay == 0 {
		p = retry.DefaultPolicy()
	}
	if p.Retryable == nil {
		p.Retryable = retryableErr
	}
	return p
}

// allow consults the breaker before an operation touches the network;
// a denied operation is an instant miss.
func (c *Client) allow() bool {
	if c.Breaker == nil {
		return true
	}
	if c.Breaker.Allow() {
		return true
	}
	c.skipped.Add(1)
	return false
}

// observe feeds the operation's final outcome to the breaker: only
// transport-level failures (no HTTP response at all) count against
// the server; any answer — a hit, a 404 miss, even a rejection —
// proves it reachable.
func (c *Client) observe(err error) {
	if c.Breaker == nil {
		return
	}
	var te transportError
	if err != nil && errors.As(err, &te) {
		c.Breaker.Failure()
		return
	}
	c.Breaker.Success()
}

// do runs op under the retry policy, counting retried attempts.
func (c *Client) do(op func() error) error {
	err := c.policy().Do(context.Background(), func(n int) error {
		if n > 0 {
			c.retries.Add(1)
		}
		return op()
	})
	c.observe(err)
	return err
}

// Get fetches id's encoded entry, advertising gzip transport (the
// server compresses gob entries several-fold on the wire; the raw
// entry is restored here before the store verifies it). Transient
// failures are retried; any final failure — network, non-200,
// oversized or corrupt body — is a miss and the caller recomputes.
func (c *Client) Get(id string) ([]byte, bool) {
	c.gets.Add(1)
	if !c.allow() {
		return nil, false
	}
	var out []byte
	err := c.do(func() error {
		b, err := c.getOnce(id)
		if err != nil {
			return err
		}
		out = b
		return nil
	})
	switch {
	case err == nil:
		c.hits.Add(1)
		return out, true
	case errors.Is(err, errNotFound):
		return nil, false
	default:
		c.errs.Add(1)
		return nil, false
	}
}

// getOnce performs one GET attempt.
func (c *Client) getOnce(id string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.URL(id), nil)
	if err != nil {
		return nil, retry.Permanent(err)
	}
	// Set explicitly (disabling the transport's hidden auto-gzip) so
	// the encoding is part of the wire protocol and testable.
	req.Header.Set("Accept-Encoding", "gzip")
	c.auth(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxEntryBytes))
		if resp.StatusCode == http.StatusNotFound {
			return nil, errNotFound
		}
		return nil, statusError{resp.StatusCode}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		return nil, fmt.Errorf("httpstore: read body: %w", err)
	}
	if len(b) > maxEntryBytes {
		return nil, retry.Permanent(fmt.Errorf("httpstore: entry exceeds %d bytes", maxEntryBytes))
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if b, err = artifact.GunzipBytes(b); err != nil {
			return nil, fmt.Errorf("httpstore: gunzip: %w", err)
		}
	}
	return b, nil
}

// Put publishes id's encoded entry gzip-compressed, best-effort, with
// transient failures retried. A rejection (400: the entry's identity
// does not hash to id) is final.
func (c *Client) Put(id string, data []byte) {
	if !c.allow() {
		return
	}
	body := artifact.GzipBytes(data)
	err := c.do(func() error {
		status, err := c.put(id, body)
		if err != nil {
			return transportError{err}
		}
		if status/100 == 2 {
			return nil
		}
		return statusError{code: status}
	})
	if err != nil {
		c.errs.Add(1)
		return
	}
	c.puts.Add(1)
}

// put performs one PUT attempt and returns the HTTP status.
func (c *Client) put(id string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPut, c.URL(id), bytes.NewReader(body))
	if err != nil {
		return 0, retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", "gzip")
	c.auth(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode, nil
}

// FetchAll implements artifact.BulkFetcher: one POST /closure round
// trip downloads every named entry the server has, instead of a GET
// per id. Like every other operation it is best-effort — a rejection,
// a network failure or a corrupt body all degrade to an empty result
// and the store falls back to per-key reads. Each returned entry is
// still verified by the store before use.
func (c *Client) FetchAll(ids []string) map[string][]byte {
	if len(ids) == 0 || len(ids) > artifact.MaxClosureIDs {
		return nil
	}
	c.bulkGets.Add(1)
	if !c.allow() {
		return nil
	}
	var out map[string][]byte
	err := c.do(func() error {
		m, err := c.fetchAllOnce(ids)
		if err != nil {
			return err
		}
		out = m
		return nil
	})
	if err != nil {
		c.errs.Add(1)
		return nil
	}
	c.bulkEntries.Add(int64(len(out)))
	return out
}

// fetchAllOnce performs one closure round trip.
func (c *Client) fetchAllOnce(ids []string) (map[string][]byte, error) {
	body, err := json.Marshal(struct {
		IDs []string `json:"ids"`
	}{IDs: ids})
	if err != nil {
		return nil, retry.Permanent(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/closure", bytes.NewReader(body))
	if err != nil {
		return nil, retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	c.auth(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxEntryBytes))
		return nil, statusError{resp.StatusCode}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, artifact.MaxWireClosureBytes+1))
	if err != nil {
		return nil, fmt.Errorf("httpstore: read closure: %w", err)
	}
	if len(b) > artifact.MaxWireClosureBytes {
		return nil, retry.Permanent(fmt.Errorf("httpstore: closure exceeds %d bytes", artifact.MaxWireClosureBytes))
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if b, err = artifact.GunzipBytesMax(b, artifact.MaxWireClosureBytes); err != nil {
			return nil, fmt.Errorf("httpstore: gunzip closure: %w", err)
		}
	}
	entries, err := artifact.DecodeClosure(b)
	if err != nil {
		return nil, fmt.Errorf("httpstore: decode closure: %w", err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		out[e.ID] = e.Data
	}
	return out, nil
}

// auth attaches the bearer token when one is configured.
func (c *Client) auth(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
}

// Stats is a snapshot of the client's activity counters.
type Stats struct {
	// Gets counts lookups issued; Hits the ones answered 200.
	Gets, Hits int64
	// Puts counts successful publishes.
	Puts int64
	// Errors counts failed operations (network errors, unexpected
	// statuses, oversized bodies) — all degraded to miss/drop.
	Errors int64
	// BulkGets counts closure round trips issued; BulkEntries totals
	// the entries they returned (each replacing one per-key Get).
	BulkGets, BulkEntries int64
	// Retries counts extra attempts beyond each operation's first;
	// Skipped counts operations short-circuited to a miss because the
	// breaker was open.
	Retries, Skipped int64
}

// Stats returns the current counter snapshot.
func (c *Client) Stats() Stats {
	return Stats{
		Gets: c.gets.Load(), Hits: c.hits.Load(), Puts: c.puts.Load(), Errors: c.errs.Load(),
		BulkGets: c.bulkGets.Load(), BulkEntries: c.bulkEntries.Load(),
		Retries: c.retries.Load(), Skipped: c.skipped.Load(),
	}
}

// Degraded reports whether the breaker currently considers the
// backend unreachable.
func (c *Client) Degraded() bool {
	return c.Breaker != nil && c.Breaker.State() != retry.Closed
}

// Health implements artifact.HealthReporter: the breaker state plus
// the resilience counters, aggregated by Store.Health across chained
// tiers and surfaced by reprod as store_degraded / reprod_retries.
func (c *Client) Health() artifact.Health {
	h := artifact.Health{
		Degraded: c.Degraded(),
		Retries:  c.retries.Load(),
		Skipped:  c.skipped.Load(),
	}
	if c.Breaker != nil {
		bc := c.Breaker.Counters()
		h.BreakerTrips, h.BreakerProbes, h.BreakerRecoveries = bc.Trips, bc.Probes, bc.Recoveries
	}
	return h
}

// OpenStore builds the store behind the CLIs' -cache-dir/-store-url
// flags: a local disk tier under cacheDir (when non-empty) chained in
// front of an artifactd client at serverURL (when non-empty) — reads
// hit the local tier first and remote hits are promoted into it, while
// fresh fills publish to both. At least one of the two must be set.
// token authenticates against a -token'd artifactd; empty keeps the
// client's default ($REPRO_STORE_TOKEN, or unauthenticated).
func OpenStore(cacheDir, serverURL, token string) (*artifact.Store, error) {
	var tiers []artifact.Backend
	if cacheDir != "" {
		disk, err := artifact.NewDiskBackend(cacheDir)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, disk)
	}
	if serverURL != "" {
		remote, err := New(serverURL)
		if err != nil {
			return nil, err
		}
		if token != "" {
			remote.Token = token
		}
		tiers = append(tiers, remote)
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("httpstore: OpenStore needs a cache dir or a store URL")
	}
	return artifact.NewWithBackend(artifact.Chain(tiers...)), nil
}
