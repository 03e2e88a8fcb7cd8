package artifactd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
)

// The server keeps every entry in one append-only file in its
// directory, entries.log, and an in-memory index from id to record.
// A record is a 12-byte header followed by the id and the encoded
// entry:
//
//	id length     uint32, little-endian
//	entry length  uint32, little-endian
//	checksum      uint32, little-endian: CRC-32C over id and entry
//	id            the id's bytes
//	entry         the encoded artifact.Entry
//
// A publish appends one record with one write; only GC rewrites the
// file. One server owns a directory at a time.
const (
	logName     = "entries.log"
	compactName = logName + ".compact" // GC's copy, renamed over the log
	headerBytes = 12
	maxIDBytes  = 128 + 1 + 16 // the longest id idPattern admits
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record locates one indexed entry in the log.
type record struct {
	off      int64        // offset of the record's header
	entryLen int          // length of the encoded entry
	used     atomic.Int64 // last write or serve, in Unix nanoseconds
}

// size is the record's length in the log, header included.
func (r *record) size(id string) int64 {
	return headerBytes + int64(len(id)) + int64(r.entryLen)
}

// entryLog is the log file and its index. mu guards f, end and index;
// readers hold it shared through ReadAt, so GC cannot swap the file
// under them. wmu serializes appends and GC.
type entryLog struct {
	dir   string
	wmu   sync.Mutex
	mu    sync.RWMutex
	f     *os.File
	end   int64 // the log's length: where the next record goes
	index map[string]*record
}

// openLog opens dir's log (creating dir and the log if absent) and
// indexes it. A compaction copy left by a crash mid-GC is removed: the
// log it was to replace is intact.
func openLog(dir string) (*entryLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifactd: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, compactName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("artifactd: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("artifactd: %w", err)
	}
	l := &entryLog{dir: dir, f: f, index: map[string]*record{}}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan indexes every record whose checksum verifies, a later record of
// one id replacing an earlier one, and gives each the same last use,
// now: GC breaks the tie by record order. A record that fails its
// checksum but whose lengths fit the file is skipped alone. The log is
// cut at the first header that is short, gives a length no record can
// have, or runs past the end of the file, as a crash mid-append leaves
// it, so the next append starts at a record boundary. No length is
// allocated before it is known to fit the file.
func (l *entryLog) scan() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("artifactd: %w", err)
	}
	size := info.Size()
	now := time.Now().UnixNano()
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, size), 1<<16)
	var hdr [headerBytes]byte
	var buf []byte
	off := int64(0)
	for off+headerBytes <= size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("artifactd: read %s: %w", logName, err)
		}
		idLen, entryLen := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:])
		if idLen == 0 || idLen > maxIDBytes || entryLen > artifact.MaxWireEntryBytes ||
			off+headerBytes+int64(idLen)+int64(entryLen) > size {
			break
		}
		n := int(idLen) + int(entryLen)
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("artifactd: read %s: %w", logName, err)
		}
		if crc32.Checksum(buf, castagnoli) == binary.LittleEndian.Uint32(hdr[8:]) && idPattern.Match(buf[:idLen]) {
			rec := &record{off: off, entryLen: int(entryLen)}
			rec.used.Store(now)
			l.index[string(buf[:idLen])] = rec
		}
		off += headerBytes + int64(n)
	}
	if off < size {
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("artifactd: cut %s: %w", logName, err)
		}
	}
	l.end = off
	return nil
}

// encodeRecord frames id and entry as one log record.
func encodeRecord(id string, entry []byte) []byte {
	b := make([]byte, headerBytes+len(id)+len(entry))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(id)))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(entry)))
	copy(b[headerBytes:], id)
	copy(b[headerBytes+len(id):], entry)
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[headerBytes:], castagnoli))
	return b
}

// checkRecord reports whether b is id's record, checksum included.
func checkRecord(b []byte, id string) bool {
	return len(b) >= headerBytes+len(id) &&
		binary.LittleEndian.Uint32(b[0:]) == uint32(len(id)) &&
		int(binary.LittleEndian.Uint32(b[4:])) == len(b)-headerBytes-len(id) &&
		string(b[headerBytes:headerBytes+len(id)]) == id &&
		crc32.Checksum(b[headerBytes:], castagnoli) == binary.LittleEndian.Uint32(b[8:])
}

// put appends id's record with one write, unless id is indexed: ids
// are content keys, so the stored copy serves as well and only its last
// use is refreshed. The id is indexed after the write, so no reader
// sees a torn record. A failed write is cut off again; like any
// unstored entry, the entry is recomputed on its next miss.
func (l *entryLog) put(id string, entry []byte) {
	b := encodeRecord(id, entry)
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.RLock()
	old := l.index[id]
	l.mu.RUnlock()
	now := time.Now().UnixNano()
	if old != nil {
		old.used.Store(now)
		return
	}
	if _, err := l.f.WriteAt(b, l.end); err != nil {
		_ = l.f.Truncate(l.end) // best-effort: the next append overwrites the tail anyway
		return
	}
	rec := &record{off: l.end, entryLen: len(entry)}
	rec.used.Store(now)
	l.mu.Lock()
	l.index[id] = rec
	l.end += int64(len(b))
	l.mu.Unlock()
}

// get reads id's entry and refreshes its last use. It returns a nil
// record on a miss, and an error when the record fails its checksum.
func (l *entryLog) get(id string) ([]byte, *record, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec := l.index[id]
	if rec == nil {
		return nil, nil, nil
	}
	b := make([]byte, rec.size(id))
	if _, err := l.f.ReadAt(b, rec.off); err != nil {
		return nil, rec, fmt.Errorf("artifactd: read %s: %w", id, err)
	}
	if !checkRecord(b, id) {
		return nil, rec, fmt.Errorf("artifactd: record %s fails its checksum", id)
	}
	rec.used.Store(time.Now().UnixNano())
	return b[headerBytes+len(id):], rec, nil
}

// drop unindexes id if it still names rec, which failed verification.
// Its bytes stay in the log, dead, until GC compacts them away.
func (l *entryLog) drop(id string, rec *record) {
	l.mu.Lock()
	if l.index[id] == rec {
		delete(l.index, id)
	}
	l.mu.Unlock()
}

// stats returns the number of indexed entries and the log's length.
func (l *entryLog) stats() (entries int, bytes int64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.index), l.end
}

// close closes the log file; the log must not be used afterwards.
func (l *entryLog) close() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// use is one indexed entry as GC saw it.
type use struct {
	id   string
	rec  *record
	used int64
}

// gc removes the entries unused for longer than maxAge, then the least
// recently used until the remaining records fit in maxBytes (a zero
// bound is unbounded). It compacts the log: the survivors whose
// checksums verify are copied, oldest use first, into a new file that
// is renamed over the log, so record order carries recency across a
// restart. A sweep that evicts nothing and finds no dead bytes
// rewrites nothing. Appends wait for the sweep; reads go on until the
// swap. An evicted entry read during the copy is still evicted: it is
// recomputed on its next miss.
func (l *entryLog) gc(maxBytes int64, maxAge time.Duration) (artifact.GCResult, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.RLock()
	ents := make([]use, 0, len(l.index))
	var total int64
	for id, rec := range l.index {
		ents = append(ents, use{id, rec, rec.used.Load()})
		total += rec.size(id)
	}
	end := l.end
	l.mu.RUnlock()
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].used != ents[j].used {
			return ents[i].used < ents[j].used
		}
		return ents[i].rec.off < ents[j].rec.off
	})

	res := artifact.GCResult{Scanned: len(ents)}
	now := time.Now().UnixNano()
	keep := ents[:0]
	for _, e := range ents {
		if maxAge > 0 && now-e.used > int64(maxAge) || maxBytes > 0 && total > maxBytes {
			res.Removed++
			total -= e.rec.size(e.id)
			continue
		}
		keep = append(keep, e)
	}
	if res.Removed == 0 && total == end {
		res.BytesKept = total
		return res, nil
	}

	path := filepath.Join(l.dir, compactName)
	nf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return artifact.GCResult{}, fmt.Errorf("artifactd: gc: %w", err)
	}
	offs, n, err := copyRecords(nf, l.f, keep)
	if err == nil {
		// Synced before the rename: a crash must not cost every
		// survivor at once.
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(path, filepath.Join(l.dir, logName))
	}
	if err != nil {
		nf.Close()
		os.Remove(path)
		return artifact.GCResult{}, fmt.Errorf("artifactd: gc: %w", err)
	}

	index := make(map[string]*record, len(keep))
	l.mu.Lock()
	for i, e := range keep {
		if offs[i] < 0 {
			res.Removed++ // failed its checksum in the copy
			continue
		}
		if l.index[e.id] != e.rec {
			continue // dropped by a failed read since the snapshot
		}
		rec := &record{off: offs[i], entryLen: e.rec.entryLen}
		rec.used.Store(e.rec.used.Load())
		index[e.id] = rec
	}
	old := l.f
	l.f, l.end, l.index = nf, n, index
	l.mu.Unlock()
	old.Close()
	res.BytesFreed = end - n
	res.BytesKept = n
	return res, nil
}

// copyRecords copies ents' records from src to dst in order, skipping
// those that fail their checksum, and returns each one's offset in dst
// (-1 when skipped) and dst's length.
func copyRecords(dst, src *os.File, ents []use) ([]int64, int64, error) {
	w := bufio.NewWriterSize(dst, 1<<16)
	offs := make([]int64, len(ents))
	var off int64
	var buf []byte
	for i, e := range ents {
		size := e.rec.size(e.id)
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := src.ReadAt(buf, e.rec.off); err != nil || !checkRecord(buf, e.id) {
			offs[i] = -1
			continue
		}
		if _, err := w.Write(buf); err != nil {
			return nil, 0, err
		}
		offs[i] = off
		off += size
	}
	return offs, off, w.Flush()
}
