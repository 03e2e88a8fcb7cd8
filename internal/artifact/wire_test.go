package artifact

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary bytes, as read from a disk tier or
// an artifactd upload, to DecodeEntry: it must never panic, and an
// accepted entry rebuilds its key as a server does to verify an upload
// and re-encodes to bytes that decode to the same entry (gob does not
// tell a nil payload from an empty one).
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeEntry(b)
		if err != nil {
			return
		}
		e.Key().ID()
		enc, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		back, err := DecodeEntry(enc)
		if err != nil || back.Version != e.Version || back.Kind != e.Kind || back.Label != e.Label || !bytes.Equal(back.Payload, e.Payload) {
			t.Fatalf("re-encoded entry decodes to %+v, %v; want %+v", back, err, e)
		}
	})
}

// FuzzDecodeClosure feeds arbitrary bytes, as received from an
// artifactd closure response, to DecodeClosure: it must never panic,
// an accepted closure stays within MaxClosureIDs entries of at most
// MaxWireEntryBytes each, and it re-encodes to an equal closure.
func FuzzDecodeClosure(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := DecodeClosure(b)
		if err != nil {
			return
		}
		if len(entries) > MaxClosureIDs {
			t.Fatalf("accepted a closure of %d entries", len(entries))
		}
		for _, e := range entries {
			if len(e.Data) > MaxWireEntryBytes {
				t.Fatalf("accepted entry %s of %d bytes", e.ID, len(e.Data))
			}
		}
		enc, err := EncodeClosure(entries)
		if err != nil {
			t.Fatalf("decoded closure does not re-encode: %v", err)
		}
		back, err := DecodeClosure(enc)
		if err != nil || len(back) != len(entries) {
			t.Fatalf("re-encoded closure decodes to %d entries, %v; want %d", len(back), err, len(entries))
		}
		for i := range back {
			if back[i].ID != entries[i].ID || !bytes.Equal(back[i].Data, entries[i].Data) {
				t.Fatalf("re-encoded closure entry %d differs", i)
			}
		}
	})
}

// FuzzGunzipBytesMax feeds arbitrary gzip bodies and caps to
// GunzipBytesMax: it must never panic, never return more than the cap,
// and an accepted body's expansion survives a GzipBytes round trip.
// The cap is a uint16 so a gzip bomb costs the fuzzer at most 64 KB.
func FuzzGunzipBytesMax(f *testing.F) {
	f.Fuzz(func(t *testing.T, zb []byte, max uint16) {
		b, err := GunzipBytesMax(zb, int(max))
		if err != nil {
			return
		}
		if len(b) > int(max) {
			t.Fatalf("expanded to %d bytes past the %d cap", len(b), max)
		}
		back, err := GunzipBytesMax(GzipBytes(b), int(max))
		if err != nil || !bytes.Equal(back, b) {
			t.Fatalf("GzipBytes round trip: %d bytes, %v; want the %d accepted bytes", len(back), err, len(b))
		}
	})
}

// TestDecodeClosureBoundsAllocation pins the closure decoder's memory
// bound. Gob spends one byte on an empty slice element, so decoding a
// body that is one gob slice costs about 40 bytes of entries per body
// byte before any count check can run: 3,982 bytes of gzip wire made
// the client allocate 940 MB. DecodeClosure must read the entry count
// first and reject it before allocating, and must refuse the slice
// form outright.
func TestDecodeClosureBoundsAllocation(t *testing.T) {
	header := func(n int) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(n); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var slice bytes.Buffer
	if err := gob.NewEncoder(&slice).Encode(make([]ClosureEntry, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"count past the cap", header(4_000_000)},
		{"negative count", header(-1)},
		{"one slice of a million empty entries", slice.Bytes()},
		{"count with missing entries", header(MaxClosureIDs)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeClosure(c.body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", c.name, len(c.body), n)
		}
	}
}
