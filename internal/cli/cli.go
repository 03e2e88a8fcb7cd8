// Package cli holds what the commands share: the artifact-store flags
// of the engine commands (repro, wcrt, bdbench, reprod) and the
// daemons' logger (reprod, artifactd).
package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/artifact/httpstore"
	"repro/internal/datagen"
)

// StoreFlags holds the store flags one command declared.
type StoreFlags struct {
	cacheDir, storeURL, storeToken, gc, memQuota string
}

// RegisterStore declares -cache-dir, -store-url, -store-token, -gc and
// -mem-quota on fs; Open reads them after fs is parsed.
func RegisterStore(fs *flag.FlagSet) *StoreFlags {
	f := &StoreFlags{}
	fs.StringVar(&f.cacheDir, "cache-dir", "", "persist artifacts under this directory and warm-start from it")
	fs.StringVar(&f.storeURL, "store-url", "", "share artifacts through the artifactd server at this URL (combine with -cache-dir for a local tier in front)")
	fs.StringVar(&f.storeToken, "store-token", "", "bearer token for a -token'd artifactd server (default $REPRO_STORE_TOKEN)")
	fs.StringVar(&f.gc, "gc", "", `LRU-sweep the -cache-dir down to this bound (after the run; reprod: every -gc-interval): a size, an age, or both ("4GB", "168h", "4GB,168h")`)
	fs.StringVar(&f.memQuota, "mem-quota", "", `bound the in-process artifact cache: size, idle age and/or kind=size, comma-separated ("256MB", "256MB,30m,scenario-render=64MB")`)
	return f
}

// Open validates all five flags and builds what they ask for: the
// store to compute through, which is always the one dataset content
// caches in (with -cache-dir or -store-url a persistent store, which
// datagen is pointed at; without them datagen's current store), the
// -mem-quota bound (zero when unset) and the -gc sweep of the cache dir
// (nil when unset). The caller installs the quota on the returned
// store, so it bounds the datasets too, and runs the sweep when its
// command says.
func (f *StoreFlags) Open() (*artifact.Store, artifact.MemQuota, func() (artifact.GCResult, error), error) {
	sweep, err := artifact.GCSweeper(f.cacheDir, f.gc)
	if err != nil {
		return nil, artifact.MemQuota{}, nil, err
	}
	var quota artifact.MemQuota
	if f.memQuota != "" {
		if quota, err = artifact.ParseQuotaSpec(f.memQuota); err != nil {
			return nil, artifact.MemQuota{}, nil, err
		}
	}
	if f.cacheDir == "" && f.storeURL == "" {
		return datagen.Store(), quota, sweep, nil
	}
	st, err := httpstore.OpenStore(f.cacheDir, f.storeURL, f.storeToken)
	if err != nil {
		return nil, artifact.MemQuota{}, nil, err
	}
	datagen.SetStore(st)
	return st, quota, sweep, nil
}

// NewLogger builds a daemon's logger: structured key=value lines on
// stderr, every record tagged with the daemon name, bounded below by
// its -log-level flag.
func NewLogger(component, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q is not debug, info, warn or error", level)
	}
	h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	return slog.New(h).With("component", component), nil
}
