package artifact

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// DiskBackend persists encoded entries as <id>.gob files under one
// directory — the local tier of the store. Concurrent processes (and,
// through artifactd, concurrent machines) may share a directory.
type DiskBackend struct {
	dir string
}

// NewDiskBackend returns a disk backend rooted at dir (created if
// absent).
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &DiskBackend{dir: dir}, nil
}

func (d *DiskBackend) path(id string) string {
	return filepath.Join(d.dir, id+".gob")
}

// Get reads id's entry. A hit refreshes the file's mtime, which is the
// recency signal GC's LRU sweep evicts by — recently read entries
// survive a size-capped sweep ahead of stale ones.
func (d *DiskBackend) Get(id string) ([]byte, bool) {
	b, err := os.ReadFile(d.path(id))
	if err != nil {
		return nil, false // cold miss (or unreadable: recompute either way)
	}
	now := time.Now()
	os.Chtimes(d.path(id), now, now) // best-effort LRU touch
	return b, true
}

// Put publishes id's entry, best-effort: a full write to a temp file
// followed by an atomic rename, so concurrent writers (sharded runs
// computing the same deterministic artefact) each publish a complete
// entry and readers never see a torn file. Write failures are
// swallowed — persistence is an optimization, not a correctness
// requirement.
func (d *DiskBackend) Put(id string, data []byte) {
	tmp, err := os.CreateTemp(d.dir, id+".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, d.path(id)); err != nil {
		os.Remove(name)
	}
}

// loadBackend reads and validates key's persisted entry through the
// store's backend, also reporting the encoded payload size (the
// memory tier's charge for the decoded resident). Any failure — plain
// miss aside — counts as a discard and falls back to recomputation;
// the store never propagates backend corruption.
func loadBackend[T any](s *Store, key Key, check func(T) bool) (T, int64, bool) {
	var zero T
	// A bulk-prefetched entry short-circuits the backend read: the
	// bytes already crossed the wire once, verification below is
	// identical either way.
	b, ok := s.takePrefetched(key.ID())
	if !ok {
		b, ok = s.backend.Get(key.ID())
	}
	if !ok {
		return zero, 0, false
	}
	de, err := DecodeEntry(b)
	if err != nil {
		s.backendDiscards.Add(1)
		return zero, 0, false
	}
	if !de.Matches(key) {
		s.backendDiscards.Add(1)
		return zero, 0, false
	}
	var v T
	if err := gob.NewDecoder(bytes.NewReader(de.Payload)).Decode(&v); err != nil {
		s.backendDiscards.Add(1)
		return zero, 0, false
	}
	if check != nil && !check(v) {
		s.backendDiscards.Add(1)
		return zero, 0, false
	}
	return v, int64(len(de.Payload)), true
}

// encodeValue gob-encodes a freshly computed value once, serving both
// consumers of the encoding: the persistence backend (the payload to
// publish) and the memory tier (the byte size to charge). Values the
// codec cannot round-trip (live workload lists, samplers — the
// GetMem-only artefacts) return nil: they are not persisted, and the
// memory tier charges memFallbackBytes instead.
func encodeValue[T any](v T) []byte {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil
	}
	return payload.Bytes()
}

// saveBackendEncoded persists an already-encoded payload through the
// store's backend, best-effort.
func saveBackendEncoded(s *Store, key Key, payload []byte) {
	b, err := EncodeEntry(Entry{Version: Version, Kind: key.Kind, Label: key.Label, Payload: payload})
	if err != nil {
		return
	}
	s.backend.Put(key.ID(), b)
}
