package cli

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/datagen"
)

func openArgs(t *testing.T, args ...string) (*artifact.Store, artifact.MemQuota, func() (artifact.GCResult, error), error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterStore(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f.Open()
}

func TestOpenNoFlags(t *testing.T) {
	sentinel := artifact.New()
	orig := datagen.SetStore(sentinel)
	defer datagen.SetStore(orig)

	st, quota, sweep, err := openArgs(t)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil || quota.Enabled() || sweep != nil {
		t.Fatalf("no flags gave store %v, quota %v, sweep set %v; want nil, zero, nil", st, quota, sweep != nil)
	}
	if cur := datagen.SetStore(orig); cur != sentinel {
		t.Fatal("Open without a store flag replaced datagen's store")
	}
}

func TestOpenCacheDir(t *testing.T) {
	dir := t.TempDir()
	orig := datagen.SetStore(nil)
	defer datagen.SetStore(orig)

	st, quota, sweep, err := openArgs(t, "-cache-dir", dir, "-gc", "1GB", "-mem-quota", "256MB")
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || sweep == nil {
		t.Fatalf("got store %v, sweep set %v; want both", st, sweep != nil)
	}
	if quota.MaxBytes != 256<<20 {
		t.Fatalf("quota MaxBytes = %d, want %d", quota.MaxBytes, 256<<20)
	}
	if cur := datagen.SetStore(nil); cur != st {
		t.Fatal("Open did not route dataset content through the opened store")
	}

	key := artifact.KeyOf("cli-test", struct{ N int }{7})
	if _, err := artifact.Get(st, key, func() (int, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	fresh, err := artifact.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := artifact.Get(fresh, key, func() (int, error) { return 0, errors.New("recomputed: entry not on disk") })
	if err != nil || got != 42 {
		t.Fatalf("entry through %s: got %d, %v; want 42", dir, got, err)
	}

	res, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned == 0 || res.Removed != 0 {
		t.Fatalf("gc under a 1GB bound: %s; want the entry scanned and kept", res)
	}
}

func TestOpenRejects(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-gc", "1GB"},
		{"-cache-dir", dir, "-gc", "lots"},
		{"-mem-quota", "256XB"},
		{"-store-url", "://nowhere"},
	} {
		if _, _, _, err := openArgs(t, args...); err == nil {
			t.Errorf("Open(%q) accepted", args)
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*")); len(matches) != 0 {
		t.Errorf("a rejected Open wrote %v", matches)
	}
}

func TestNewLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error"} {
		if _, err := NewLogger("test", level); err != nil {
			t.Errorf("level %q: %v", level, err)
		}
	}
	if _, err := NewLogger("test", "verbose"); err == nil {
		t.Error(`level "verbose" accepted`)
	}
}
