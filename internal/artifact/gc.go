package artifact

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// GCPolicy bounds a disk tier: entries older than MaxAge are removed,
// and if the surviving entries still exceed MaxBytes the least
// recently used (oldest mtime — DiskBackend touches entries on read)
// are removed until the total fits. A zero field is unbounded.
type GCPolicy struct {
	MaxBytes int64
	MaxAge   time.Duration
}

// GCResult summarizes one sweep.
type GCResult struct {
	// Scanned counts the entries examined.
	Scanned int
	// Removed counts the entries (and stale temp files) deleted.
	Removed int
	// BytesFreed is the total size of what was deleted.
	BytesFreed int64
	// BytesKept is the total size of the surviving entries.
	BytesKept int64
}

func (r GCResult) String() string {
	return fmt.Sprintf("scanned %d entries, removed %d (%d bytes freed, %d kept)",
		r.Scanned, r.Removed, r.BytesFreed, r.BytesKept)
}

// tmpGrace is how old an orphaned .tmp-* file must be before GC treats
// it as the leavings of a crashed writer rather than an in-flight
// publish (publishes are sub-second).
const tmpGrace = time.Hour

// GC sweeps the disk tier rooted at dir down to the given bounds:
// size- and age-bounded LRU eviction over the *.gob entries, plus
// removal of orphaned temp files older than an hour. It is safe to run
// concurrently with fills — publishes are atomic renames, entries that
// appear after the scan are untouched, and an entry republished or
// read (DiskBackend refreshes mtime on read) after the scan is
// re-statted and kept rather than evicted. Eviction never loses
// results: an evicted artefact is recomputed on next use.
func GC(dir string, maxBytes int64, maxAge time.Duration) (GCResult, error) {
	var res GCResult
	ents, err := os.ReadDir(dir)
	if err != nil {
		return res, fmt.Errorf("artifact: gc: %w", err)
	}
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	now := time.Now()
	var files []file
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // vanished mid-scan
		}
		name := de.Name()
		if strings.Contains(name, ".tmp-") {
			if now.Sub(info.ModTime()) > tmpGrace {
				if os.Remove(filepath.Join(dir, name)) == nil {
					res.Removed++
					res.BytesFreed += info.Size()
				}
			}
			continue
		}
		if !strings.HasSuffix(name, ".gob") {
			continue
		}
		files = append(files, file{path: filepath.Join(dir, name), size: info.Size(), mtime: info.ModTime()})
	}
	res.Scanned = len(files)
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })

	var total int64
	for _, f := range files {
		total += f.size
	}
	// remove deletes f unless it was republished or read since the
	// scan (fresher mtime) — in-flight keys survive the sweep.
	remove := func(f file) bool {
		if info, err := os.Stat(f.path); err != nil || info.ModTime().After(f.mtime) {
			return false
		}
		if os.Remove(f.path) != nil {
			return false
		}
		res.Removed++
		res.BytesFreed += f.size
		total -= f.size
		return true
	}
	kept := files[:0]
	for _, f := range files {
		if maxAge > 0 && now.Sub(f.mtime) > maxAge && remove(f) {
			continue
		}
		kept = append(kept, f)
	}
	if maxBytes > 0 {
		for _, f := range kept {
			if total <= maxBytes {
				break
			}
			remove(f)
		}
	}
	res.BytesKept = total
	return res, nil
}

// GCSweeper validates a CLI's -gc flag against its -cache-dir and
// returns the sweep, or an error for a malformed spec or a missing
// cache dir — the one implementation behind the engine commands' -gc
// (internal/cli). An empty spec returns a nil sweep (no GC requested).
func GCSweeper(cacheDir, spec string) (func() (GCResult, error), error) {
	if spec == "" {
		return nil, nil
	}
	if cacheDir == "" {
		return nil, fmt.Errorf("-gc needs a -cache-dir to sweep")
	}
	p, err := ParseGCSpec(spec)
	if err != nil {
		return nil, err
	}
	return func() (GCResult, error) { return GC(cacheDir, p.MaxBytes, p.MaxAge) }, nil
}

// ParseGCSpec parses the CLIs' -gc flag: comma-separated bounds, each
// either a size ("512MB", "2GB", "1048576") capping the tier's total
// bytes or a duration ("72h", "30m", "14d") capping entry age. One
// bound of each kind at most; at least one bound overall.
func ParseGCSpec(spec string) (GCPolicy, error) {
	var p GCPolicy
	if strings.TrimSpace(spec) == "" {
		return p, fmt.Errorf("empty gc spec (want e.g. %q, %q or %q)", "4GB", "168h", "4GB,168h")
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if d, err := parseAge(part); err == nil {
			if p.MaxAge != 0 {
				return GCPolicy{}, fmt.Errorf("gc spec %q sets the age bound twice", spec)
			}
			if d <= 0 {
				return GCPolicy{}, fmt.Errorf("gc spec %q: age bound must be positive", spec)
			}
			p.MaxAge = d
			continue
		}
		if n, err := parseSize(part); err == nil {
			if p.MaxBytes != 0 {
				return GCPolicy{}, fmt.Errorf("gc spec %q sets the size bound twice", spec)
			}
			if n <= 0 {
				return GCPolicy{}, fmt.Errorf("gc spec %q: size bound must be positive", spec)
			}
			p.MaxBytes = n
			continue
		}
		return GCPolicy{}, fmt.Errorf("gc spec part %q is neither a size (512MB) nor a duration (72h)", part)
	}
	return p, nil
}

// parseAge is time.ParseDuration plus a day suffix ("14d").
func parseAge(s string) (time.Duration, error) {
	if n, ok := strings.CutSuffix(s, "d"); ok {
		days, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			return 0, err
		}
		if days < 0 || days > math.MaxInt64/int64(24*time.Hour) {
			return 0, fmt.Errorf("age %q out of range", s)
		}
		return time.Duration(days) * 24 * time.Hour, nil
	}
	return time.ParseDuration(s)
}

// parseSize parses an integer byte count with an optional B/KB/MB/GB/TB
// suffix (case-insensitive, powers of 1024).
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mult int64
	}{{"TB", 1 << 40}, {"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1}} {
		if n, ok := strings.CutSuffix(u, suf.name); ok {
			u, mult = n, suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q out of range", s)
	}
	return n * mult, nil
}
