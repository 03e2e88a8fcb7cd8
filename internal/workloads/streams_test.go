package workloads_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"os"
	"strings"
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/sim/trace"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// streamBudget is the per-workload instruction budget of the pinned
// streams.
const streamBudget = 100_000

// hashProbe writes every field of every instruction it receives, in
// order, into a SHA-256.
type hashProbe struct {
	h   hash.Hash
	buf []byte
}

func (p *hashProbe) Inst(i *isa.Inst) { p.InstBlock([]isa.Inst{*i}) }

func (p *hashProbe) InstBlock(block []isa.Inst) {
	b := p.buf[:0]
	for k := range block {
		i := &block[k]
		b = binary.LittleEndian.AppendUint64(b, i.PC)
		b = binary.LittleEndian.AppendUint64(b, i.Addr)
		b = binary.LittleEndian.AppendUint64(b, i.Target)
		taken := byte(0)
		if i.Taken {
			taken = 1
		}
		b = append(b, byte(i.Op), byte(i.Kind), taken, i.Size, byte(i.Dst), byte(i.Src1), byte(i.Src2))
	}
	p.h.Write(b)
	p.buf = b
}

// streamDigest hashes the instruction streams of list, each under its
// workload ID, delivered in blocks or, with unblocked, one instruction
// at a time.
func streamDigest(list []workloads.Workload, unblocked bool) (string, uint64) {
	p := &hashProbe{h: sha256.New()}
	var probe trace.Probe = p
	if unblocked {
		probe = trace.Unblocked(p)
	}
	var insts uint64
	for _, w := range list {
		p.h.Write([]byte(w.ID + "\n"))
		insts += workloads.Run(w, probe, streamBudget).Insts
	}
	return hex.EncodeToString(p.h.Sum(nil)), insts
}

// pinnedStreamWorkloads is every workload the repository defines: the
// 77-workload roster, the 17 representatives, the six MPI
// implementations and every comparator-suite workload.
func pinnedStreamWorkloads() []workloads.Workload {
	list := append(workloads.Roster77(), workloads.Representative17()...)
	list = append(list, workloads.MPI6()...)
	all := suites.All()
	for _, name := range suites.Names() {
		list = append(list, all[name]...)
	}
	return list
}

// TestTraceStreamsPinned pins the instruction streams themselves, below
// every model that consumes them: the SHA-256 over every field of
// every instruction each workload emits. The profile vectors and the
// goldens summarise a stream; this digest changes with any one bit of
// it, so a pure speed-up of trace generation must leave
// testdata/trace_streams.sha256 unchanged.
func TestTraceStreamsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_streams.sha256")
	if err != nil {
		t.Fatal(err)
	}
	list := pinnedStreamWorkloads()
	got, insts := streamDigest(list, false)
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("streams of %d workloads (%d instructions) hash to %s, pinned %s",
			len(list), insts, got, strings.TrimSpace(string(want)))
	}
}

// TestTraceStreamsUnblocked checks that per-instruction delivery emits
// the stream block delivery does, on workloads covering every stack
// family and every Stream feature (GC sweeps, far and secondary walks,
// indirect hops, noisy branches).
func TestTraceStreamsUnblocked(t *testing.T) {
	ids := map[string]bool{
		"H-Grep": true, "S-Sort": true, "M-WordCount": true, "I-SelectQuery": true,
		"xalancbmk-like": true, "gobmk-like": true, "CS-WebServing": true, "swaptions": true,
	}
	var subset []workloads.Workload
	for _, w := range pinnedStreamWorkloads() {
		if ids[w.ID] {
			subset = append(subset, w)
			delete(ids, w.ID)
		}
	}
	if len(ids) > 0 {
		t.Fatalf("subset workloads not found: %v", ids)
	}
	blocked, _ := streamDigest(subset, false)
	if got, _ := streamDigest(subset, true); got != blocked {
		t.Fatalf("per-instruction streams hash to %s, blocks to %s", got, blocked)
	}
}
