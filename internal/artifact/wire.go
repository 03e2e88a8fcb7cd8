// Wire-transport helpers shared by both ends of the artifact network
// tier (internal/artifact/httpstore and internal/artifact/artifactd).
// The size bound and the gzip plumbing are protocol invariants — one
// definition here keeps the two ends from desynchronizing.

package artifact

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
)

// MaxWireEntryBytes caps any entry crossing the network tier, raw or
// expanded from gzip — an order of magnitude above the largest real
// artefact (dataset contents, a few MB). One uniform cap keeps the
// protocol coherent (anything storable is also servable) and bounds
// what a gzip bomb can make either end allocate: kilobytes of wire
// can never buy a gigabyte of memory.
const MaxWireEntryBytes = 64 << 20

// MaxClosureIDs caps one closure request — generous against the real
// primer closures (a full paper run is a few hundred artefacts) while
// bounding what one request can make a server read and send.
const MaxClosureIDs = 4096

// MaxWireClosureBytes caps one closure response body (raw or expanded
// from gzip): the aggregate analogue of MaxWireEntryBytes. Servers
// stop packing entries at this bound (the rest fall back to per-key
// reads, still correct) and clients refuse bodies beyond it, so the
// protocol never lets 4096 maximum-size entries force a multi-GB
// allocation on either end.
const MaxWireClosureBytes = 256 << 20

// ClosureEntry is one (id, encoded entry) pair of a bulk closure
// download. Data is the same self-describing encoded Entry a single
// GET serves; receivers verify each entry exactly as they would a
// per-key download.
type ClosureEntry struct {
	ID   string
	Data []byte
}

// EncodeClosure serializes a closure response body with gob, the same
// codec as the entries themselves: the entry count, then each entry as
// its own value, so a decoder learns the count before it allocates.
// Entries keep the encoder's order; servers answer in request order so
// responses are deterministic.
func EncodeClosure(entries []ClosureEntry) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(len(entries)); err != nil {
		return nil, fmt.Errorf("artifact: encode closure: %w", err)
	}
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return nil, fmt.Errorf("artifact: encode closure: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// DecodeClosure parses a closure response body. It rejects a count
// above MaxClosureIDs before allocating anything for the entries, and
// an entry above MaxWireEntryBytes as soon as it is read: decoding
// never allocates more than a small multiple of len(b) plus
// MaxClosureIDs entry headers.
func DecodeClosure(b []byte) ([]ClosureEntry, error) {
	dec := gob.NewDecoder(bytes.NewReader(b))
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("artifact: decode closure: %w", err)
	}
	if n < 0 || n > MaxClosureIDs {
		return nil, fmt.Errorf("artifact: closure of %d entries is outside [0, %d]", n, MaxClosureIDs)
	}
	entries := make([]ClosureEntry, n)
	for i := range entries {
		if err := dec.Decode(&entries[i]); err != nil {
			return nil, fmt.Errorf("artifact: decode closure entry %d of %d: %w", i, n, err)
		}
		if len(entries[i].Data) > MaxWireEntryBytes {
			return nil, fmt.Errorf("artifact: closure entry %s exceeds %d bytes", entries[i].ID, MaxWireEntryBytes)
		}
	}
	return entries, nil
}

// gzWriters recycles gzip writers; gzip.NewWriter allocates large
// internal buffers, and cold runs publish (and servers re-serve)
// hundreds of entries.
var gzWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// GzipBytes returns b gzip-compressed.
func GzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzWriters.Get().(*gzip.Writer)
	zw.Reset(&buf)
	zw.Write(b)
	zw.Close()
	gzWriters.Put(zw)
	return buf.Bytes()
}

// GunzipBytes expands a gzip body, refusing malformed input and
// expansions beyond MaxWireEntryBytes.
func GunzipBytes(zb []byte) ([]byte, error) {
	return GunzipBytesMax(zb, MaxWireEntryBytes)
}

// GunzipBytesMax is GunzipBytes with an explicit expansion bound —
// closure bodies aggregate many entries and are bounded by
// MaxWireClosureBytes instead of the single-entry cap.
func GunzipBytesMax(zb []byte, max int) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(zb))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(io.LimitReader(zr, int64(max)+1))
	if err != nil {
		return nil, err
	}
	if len(b) > max {
		return nil, fmt.Errorf("artifact: gzip body expands past %d bytes", max)
	}
	return b, nil
}
