// Package core implements WCRT — the paper's workload characterization
// and reduction tool (§2.2, §3): profilers that collect the 45-metric
// micro-architectural vector for each workload, and a performance-data
// analyzer that normalizes the vectors to a Gaussian distribution,
// reduces dimensionality with PCA, clusters with K-means, and selects
// one representative workload per cluster — the procedure that reduces
// BigDataBench's 77 workloads to the 17 of Table 2.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sim/branch"
	"repro/internal/sim/machine"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Profiler runs one workload on a fresh machine model and collects its
// characterization vector, like one of WCRT's per-node profiler
// agents. Lists of workloads are profiled through
// experiments.Session.Profiles, which stores each profile and fans the
// runs out.
type Profiler struct {
	// Machine is the platform configuration profiled on.
	Machine machine.Config
	// Budget is the instruction budget per workload run.
	Budget int64
}

// Profile is one workload's collected characterization.
type Profile struct {
	Workload workloads.Workload
	Vector   metrics.Vector
	Run      *workloads.Result
	// Branch is the branch predictor's final tally, whose
	// misprediction breakdown by branch class the vector does not
	// carry.
	Branch branch.Stats
}

// Profile characterizes one workload on a fresh machine model. The
// machine consumes the trace through the block path (trace.BlockProbe),
// so the Table 2 / Fig. 1-5 profiling runs ride the batched hot loop.
func (p *Profiler) Profile(w workloads.Workload) Profile {
	prof, _ := p.ProfileCtx(nil, w) // a nil context never cancels
	return prof
}

// ProfileCtx is Profile bound to a context: a cancelled ctx aborts the
// simulation within a few thousand instructions and returns ctx.Err()
// with a zero Profile — a truncated run is never turned into a vector.
// A nil or background context behaves exactly like Profile.
func (p *Profiler) ProfileCtx(ctx context.Context, w workloads.Workload) (Profile, error) {
	m := machine.New(p.Machine)
	res, err := workloads.RunBlockCtx(ctx, w, m, p.Budget, 0)
	if err != nil {
		return Profile{}, err
	}
	m.Finish()
	return Profile{Workload: w, Vector: metrics.Compute(m), Run: res, Branch: m.BP.Stats()}, nil
}

// Analyzer reduces a profiled workload set to representatives.
type Analyzer struct {
	// ExplainTarget is the PCA cumulative-variance threshold
	// (default 0.9).
	ExplainTarget float64
	// Seed drives the deterministic K-means++ initialization.
	Seed uint64
}

// Cluster is one cluster of the reduction.
type Cluster struct {
	// Members are indices into the profiled set.
	Members []int
	// Representative is the member closest to the centroid.
	Representative int
}

// Reduction is the outcome of the WCRT workload-subset procedure.
type Reduction struct {
	// K is the number of clusters.
	K int
	// Clusters are ordered by descending size (Table 2 order).
	Clusters []Cluster
	// Explained is the PCA variance retained.
	Explained float64
	// Dimensions is the number of principal components kept.
	Dimensions int
	// Projected is the PCA-space location of each workload.
	Projected *linalg.Matrix
	// Names echoes the workload IDs in profile order.
	Names []string
}

// Reduce clusters the profiles into k representatives (the paper's
// final result uses k=17). Pass k <= 0 to select k automatically with
// the analyzer's information criterion.
func (a *Analyzer) Reduce(profiles []Profile, k int) (*Reduction, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: Reduce with no profiles")
	}
	target := a.ExplainTarget
	if target == 0 {
		target = 0.9
	}
	x := linalg.NewMatrix(len(profiles), metrics.NumMetrics)
	names := make([]string, len(profiles))
	for i, p := range profiles {
		copy(x.Row(i), p.Vector[:])
		names[i] = p.Workload.ID
	}
	stats.Normalize(x)
	pca, err := stats.PCA(x, target)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k, err = stats.ChooseK(pca.Projected, 2, min(len(profiles)-1, 24), 1.0, a.Seed)
		if err != nil {
			return nil, err
		}
	}
	km, err := stats.KMeans(pca.Projected, k, a.Seed)
	if err != nil {
		return nil, err
	}
	clusters := make([]Cluster, k)
	for i, c := range km.Assign {
		clusters[c].Members = append(clusters[c].Members, i)
	}
	for c := range clusters {
		best, bestD := -1, 0.0
		for _, i := range clusters[c].Members {
			d := sqDist(pca.Projected.Row(i), km.Centroids.Row(c))
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		clusters[c].Representative = best
	}
	// Order clusters by descending size, as Table 2 lists them.
	sort.SliceStable(clusters, func(i, j int) bool {
		if len(clusters[i].Members) != len(clusters[j].Members) {
			return len(clusters[i].Members) > len(clusters[j].Members)
		}
		return clusters[i].Representative < clusters[j].Representative
	})
	return &Reduction{
		K:          k,
		Clusters:   clusters,
		Explained:  pca.Explained,
		Dimensions: pca.Projected.Cols,
		Projected:  pca.Projected,
		Names:      names,
	}, nil
}

// Representatives returns the representative workload IDs with the
// size of the cluster each one stands for (the parenthesized counts of
// Table 2).
func (r *Reduction) Representatives() []struct {
	ID    string
	Count int
} {
	out := make([]struct {
		ID    string
		Count int
	}, len(r.Clusters))
	for i, c := range r.Clusters {
		out[i].ID = r.Names[c.Representative]
		out[i].Count = len(c.Members)
	}
	return out
}

// Similarity returns the n-by-n euclidean distance matrix of the
// workloads in PCA space (the analyzer's visualization input).
func (r *Reduction) Similarity() *linalg.Matrix {
	n := r.Projected.Rows
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := sqDist(r.Projected.Row(i), r.Projected.Row(j))
			d.Set(i, j, dist)
			d.Set(j, i, dist)
		}
	}
	return d
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		dd := a[i] - b[i]
		s += dd * dd
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
