// Package sysmodel implements the system-behaviour characterization of
// the paper's §3.2.1: CPU utilization, I/O-wait ratio, average weighted
// disk-I/O-time ratio and I/O bandwidth for a workload deployed at the
// paper's scale (≈128 GB of input on a 5-node cluster), and the rule
// that classifies each workload as CPU-intensive, I/O-intensive or
// hybrid.
//
// The model extrapolates from a simulated run: the run yields the
// workload's instructions-per-input-byte and IPC; the cluster model
// turns those into CPU seconds, and the measured input/intermediate/
// output volumes into disk and network seconds.
package sysmodel

import (
	"repro/internal/metrics"
	"repro/internal/sim/machine"
	"repro/internal/workloads"
)

// ClusterConfig is the deployment the paper used (§4.1: 5 nodes, one
// Xeon E5645 each, input ≈128 GB).
type ClusterConfig struct {
	Nodes          int
	CoresPerNode   int
	FreqHz         float64
	DiskBWBytes    float64 // per node sequential disk bandwidth
	NetBWBytes     float64 // per node network bandwidth
	InputBytes     float64 // total dataset size at deployment scale
	ReplicationOut int     // HDFS-style output replication factor
}

// DefaultCluster returns the paper's testbed deployment: five nodes of
// the machine.XeonE5645 preset.
func DefaultCluster() ClusterConfig {
	node := machine.XeonE5645()
	return ClusterConfig{
		Nodes:          5,
		CoresPerNode:   node.Cores,
		FreqHz:         node.FreqHz,
		DiskBWBytes:    150e6,
		NetBWBytes:     117e6, // 1 GbE
		InputBytes:     128e9,
		ReplicationOut: 3,
	}
}

// Class is the paper's system-behaviour class.
type Class int

// System behaviour classes (§3.2.1).
const (
	CPUIntensive Class = iota
	IOIntensive
	Hybrid
)

var classNames = []string{"CPU-Intensive", "IO-Intensive", "Hybrid"}

// String names the class.
func (c Class) String() string { return classNames[c] }

// Behaviour is a workload's modelled system behaviour at deployment
// scale.
type Behaviour struct {
	// CPUUtil is the fraction of wall time the CPUs execute.
	CPUUtil float64
	// IOWait is the fraction of time CPUs wait on outstanding disk I/O.
	IOWait float64
	// WeightedIOTime is the average weighted disk I/O time ratio
	// (queue-depth-weighted I/O time over run time, as read from
	// /proc/diskstats by the paper's methodology).
	WeightedIOTime float64
	// DiskBW and NetBW are the achieved bandwidths per node (bytes/s).
	DiskBW, NetBW float64
	// CPUSeconds and IOSeconds are the modelled totals.
	CPUSeconds, IOSeconds float64
	// Class is the §3.2.1 classification.
	Class Class
}

// Analyze models the deployment-scale system behaviour of a profiled
// run: res carries the byte tallies of the simulated run and v its
// micro-architectural vector (for IPC).
func Analyze(cfg ClusterConfig, res *workloads.Result, v metrics.Vector) Behaviour {
	var b Behaviour
	if res.InBytes == 0 || v[metrics.IPC] == 0 {
		b.Class = Hybrid
		return b
	}
	instPerByte := float64(res.Insts) / float64(res.InBytes)
	interRatio := float64(res.InterBytes) / float64(res.InBytes)
	outRatio := float64(res.OutBytes) / float64(res.InBytes)

	// Scale to the deployment input size; the stack's SysCPUFactor
	// stands in for the system-software instruction path the
	// simulation does not emit (see stack.Descriptor).
	sysFactor := res.Workload.Stack.SysCPUFactor
	if sysFactor <= 0 {
		sysFactor = 1
	}
	cw := res.CPUWeight
	if cw <= 0 {
		cw = 1
	}
	totalInsts := instPerByte * cfg.InputBytes * sysFactor * cw
	coreHz := v[metrics.IPC] * cfg.FreqHz
	b.CPUSeconds = totalInsts / coreHz / float64(cfg.Nodes*cfg.CoresPerNode)

	// Disk: read input once, spill+read intermediate locally, write
	// output with replication. Network: shuffle + replication copies.
	diskBytes := cfg.InputBytes * (1 + interRatio + outRatio*float64(cfg.ReplicationOut))
	netBytes := cfg.InputBytes * (interRatio + outRatio*float64(cfg.ReplicationOut-1))
	diskSec := diskBytes / (cfg.DiskBWBytes * float64(cfg.Nodes))
	netSec := netBytes / (cfg.NetBWBytes * float64(cfg.Nodes))
	b.IOSeconds = diskSec + netSec

	// Overlap model: data-parallel frameworks overlap compute with I/O
	// but not perfectly; the slower side dominates the wall time and a
	// fraction of the faster side leaks past the overlap.
	const overlap = 0.75
	slow := b.CPUSeconds
	if b.IOSeconds > slow {
		slow = b.IOSeconds
	}
	fast := b.CPUSeconds + b.IOSeconds - slow
	wall := slow + (1-overlap)*fast
	if wall <= 0 {
		b.Class = Hybrid
		return b
	}
	b.CPUUtil = b.CPUSeconds / wall
	if b.CPUUtil > 1 {
		b.CPUUtil = 1
	}
	b.IOWait = (b.IOSeconds - overlap*minF(b.CPUSeconds, b.IOSeconds)) / wall
	if b.IOWait < 0 {
		b.IOWait = 0
	}
	// Weighted I/O time: busy disk seconds times modelled queue depth.
	queueDepth := 1.5 + 4*interRatio + 2*outRatio
	b.WeightedIOTime = diskSec / wall * queueDepth
	b.DiskBW = diskBytes / wall / float64(cfg.Nodes)
	b.NetBW = netBytes / wall / float64(cfg.Nodes)

	b.Class = classify(b)
	return b
}

// classify applies the paper's §3.2.1 rule verbatim:
//  1. CPU utilization > 85% → CPU-intensive;
//  2. weighted disk I/O time ratio > 10, or I/O wait > 20% with CPU
//     utilization < 60% → I/O-intensive;
//  3. otherwise hybrid.
func classify(b Behaviour) Class {
	if b.CPUUtil > 0.85 {
		return CPUIntensive
	}
	if b.WeightedIOTime > 10 || (b.IOWait > 0.20 && b.CPUUtil < 0.60) {
		return IOIntensive
	}
	return Hybrid
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
