package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"os"
)

// goldenPath is where -update-golden writes, relative to the
// repository root.
const goldenPath = "bench/ladder/testdata/golden.json"

// goldenJSON maps an output's name to the SHA-256 of its bytes at the
// commit that recorded it. The simulator is deterministic, so a change
// that only makes it faster must leave every digest unchanged.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	m := map[string]string{}
	return m, json.Unmarshal(goldenJSON, &m)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// check records out's digest under name and compares it with the
// golden one. It reports whether a golden digest exists for name; a
// run at reduced sizes (the smoke test) has none.
func (c *childRun) check(r *childResult, name string, out []byte) bool {
	sum := digest(out)
	r.Digests[name] = sum
	if !c.size.golden {
		return false
	}
	want, ok := c.golden[name]
	if ok && want != sum {
		r.fail("%s: digest %s, golden %s", name, sum, want)
	}
	return ok
}

// updateGolden merges digests into the golden file.
func updateGolden(digests map[string]string) error {
	m, err := loadGolden()
	if err != nil {
		return err
	}
	for k, v := range digests {
		m[k] = v
	}
	b, err := json.MarshalIndent(m, "", "  ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
