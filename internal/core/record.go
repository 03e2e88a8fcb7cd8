package core

import (
	"repro/internal/metrics"
	"repro/internal/sim/branch"
	"repro/internal/workloads"
)

// ProfileRecord is the serializable form of a Profile: the 45-metric
// characterization vector, the branch predictor's tally and the run
// summary, minus the live Workload (kernels hold closures no codec can
// round-trip). A record persists in the artifact store and rebinds
// onto the live workload it was profiled from.
type ProfileRecord struct {
	ID             string
	Vector         metrics.Vector
	Branch         branch.Stats
	Insts          uint64
	InBytes        uint64
	OutBytes       uint64
	InterBytes     uint64
	Records        uint64
	FrameworkShare float64
	CPUWeight      float64
}

// Record strips p to its serializable form.
func Record(p Profile) ProfileRecord {
	return ProfileRecord{
		ID:             p.Workload.ID,
		Vector:         p.Vector,
		Branch:         p.Branch,
		Insts:          p.Run.Insts,
		InBytes:        p.Run.InBytes,
		OutBytes:       p.Run.OutBytes,
		InterBytes:     p.Run.InterBytes,
		Records:        p.Run.Records,
		FrameworkShare: p.Run.FrameworkShare,
		CPUWeight:      p.Run.CPUWeight,
	}
}

// Matches reports whether the record was profiled from w — the
// staleness check a store-loaded record must pass before rebinding.
func (r ProfileRecord) Matches(w workloads.Workload) bool {
	return r.ID == w.ID
}

// Rebind reconstitutes the Profile for the live workload w. The
// result is identical to the Profile the original run produced.
func (r ProfileRecord) Rebind(w workloads.Workload) Profile {
	return Profile{
		Workload: w,
		Vector:   r.Vector,
		Branch:   r.Branch,
		Run: &workloads.Result{
			Workload:       w,
			Insts:          r.Insts,
			InBytes:        r.InBytes,
			OutBytes:       r.OutBytes,
			InterBytes:     r.InterBytes,
			Records:        r.Records,
			FrameworkShare: r.FrameworkShare,
			CPUWeight:      r.CPUWeight,
		},
	}
}
