package stack

import "repro/internal/sim/trace"

// jvmMix is the framework instruction composition of managed-runtime
// stacks: data-movement heavy, branchy, no floating point — the mix
// that makes big data workloads "data movement dominated computing
// with more branch operations" (paper §5.1).
var jvmMix = trace.Mix{
	Load: 0.28, Store: 0.12, Branch: 0.20, IntAddr: 0.28,
	IntMul: 0.010, IntDiv: 0.002,
	Taken: 0.28, Noise: 0.01, Chain: 0.35,
}

// nativeMix is the leaner composition of C/C++ runtime code.
var nativeMix = trace.Mix{
	Load: 0.27, Store: 0.11, Branch: 0.17, IntAddr: 0.29,
	IntMul: 0.012, IntDiv: 0.002,
	Taken: 0.28, Noise: 0.008, Chain: 0.30,
}

// MPI returns the thin message-passing stack of the paper's §5.5
// comparison implementations: a small text footprint and near-zero
// per-record overhead, so the kernel's own behaviour dominates — which
// is why the MPI versions' L1I miss rates sit with the traditional
// benchmarks.
func MPI() Descriptor {
	return Descriptor{
		Name:   "MPI",
		CodeKB: 384, HotKB: 48, ColdFrac: 0.06,
		ReadInsts: 6, ReadPerByte: 0.02,
		EmitInsts: 3, EmitPerByte: 0.05,
		TaskInsts: 400, IterInsts: 60,
		ShufflePerByte: 0.15,
		HeapMB:         4,
		Mix:            nativeMix,
		BatchRows:      128,
		SysCPUFactor:   4,
	}
}

// Hadoop returns the Hadoop MapReduce stack model (JDK 1.6 /
// Hadoop 1.0.2 era, per the paper's testbed).
func Hadoop() Descriptor {
	return Descriptor{
		Name: "Hadoop", JVM: true,
		CodeKB: 1536, HotKB: 160, ColdFrac: 0.17,
		ReadInsts: 140, ReadPerByte: 0.5,
		EmitInsts: 80, EmitPerByte: 0.9,
		TaskInsts: 12000, IterInsts: 4000,
		ShufflePerByte: 1.2,
		GCPeriod:       400000, GCInsts: 9000, HeapMB: 48,
		Mix:          jvmMix,
		SysCPUFactor: 48,
	}
}

// Spark returns the Spark 1.0.2 stack model. Its per-record closure
// dispatch spreads over more cold code than Hadoop's record reader
// (the paper measures Spark WordCount at L1I MPKI 17 vs Hadoop's 7),
// while its iterative jobs amortize framework work across cached-RDD
// passes.
func Spark() Descriptor {
	return Descriptor{
		Name: "Spark", JVM: true,
		CodeKB: 1280, HotKB: 128, ColdFrac: 0.46,
		ReadInsts: 110, ReadPerByte: 0.4,
		EmitInsts: 100, EmitPerByte: 1.0,
		TaskInsts: 9000, IterInsts: 2500,
		ShufflePerByte: 1.0,
		GCPeriod:       320000, GCInsts: 11000, HeapMB: 64,
		Mix:          jvmMix,
		SysCPUFactor: 17,
	}
}

// Hive returns the Hive-on-MapReduce stack model: Hadoop plus the
// per-row operator-tree interpretation of the Hive 0.9 executor.
func Hive() Descriptor {
	return Descriptor{
		Name: "Hive", JVM: true,
		CodeKB: 1792, HotKB: 176, ColdFrac: 0.16,
		ReadInsts: 170, ReadPerByte: 0.5,
		EmitInsts: 100, EmitPerByte: 1.0,
		TaskInsts:      14000,
		ShufflePerByte: 1.3,
		GCPeriod:       400000, GCInsts: 9000, HeapMB: 48,
		Mix:          jvmMix,
		SysCPUFactor: 30,
	}
}

// Shark returns the Shark (SQL-on-Spark) stack model.
func Shark() Descriptor {
	return Descriptor{
		Name: "Shark", JVM: true,
		CodeKB: 1408, HotKB: 144, ColdFrac: 0.22,
		ReadInsts: 130, ReadPerByte: 0.05,
		EmitInsts: 95, EmitPerByte: 0.9,
		TaskInsts: 9000, IterInsts: 2500,
		ShufflePerByte: 1.0,
		GCPeriod:       360000, GCInsts: 10000, HeapMB: 56,
		Mix:          jvmMix,
		BatchRows:    512,
		SysCPUFactor: 9,
	}
}

// Impala returns the Impala stack model: a C++ vectorized engine whose
// batch-at-a-time execution leaves very little per-row framework work.
func Impala() Descriptor {
	return Descriptor{
		Name:   "Impala",
		CodeKB: 640, HotKB: 128, ColdFrac: 0.07,
		ReadInsts: 12, ReadPerByte: 0.02,
		EmitInsts: 8, EmitPerByte: 0.15,
		TaskInsts:      8000,
		ShufflePerByte: 0.4,
		HeapMB:         24,
		Mix:            nativeMix,
		BatchRows:      1024,
		SysCPUFactor:   12,
	}
}

// HBase returns the HBase region-server stack model used by the cloud
// OLTP (service) workloads: a very large text footprint walked almost
// randomly per request (RPC decode, filter chains, block cache,
// memstore), which is what gives the service class its L1I MPKI of ~51
// in the paper's Fig. 4.
func HBase() Descriptor {
	return Descriptor{
		Name: "HBase", JVM: true,
		CodeKB: 2560, HotKB: 128, ColdFrac: 0.62, ColdZipfS: 1.3,
		ReadInsts: 150, ReadPerByte: 0.4,
		EmitInsts: 90, EmitPerByte: 0.8,
		TaskInsts:      5000,
		RequestInsts:   5200,
		ShufflePerByte: 0.8,
		GCPeriod:       260000, GCInsts: 9000, HeapMB: 64,
		Mix:          jvmMix,
		SysCPUFactor: 30,
	}
}

// MySQL returns a row-store RDBMS stack model (roster variety: the
// BigDataBench OLTP operations have MySQL implementations).
func MySQL() Descriptor {
	return Descriptor{
		Name:   "MySQL",
		CodeKB: 896, HotKB: 128, ColdFrac: 0.28,
		ReadInsts: 60, ReadPerByte: 0.2,
		EmitInsts: 40, EmitPerByte: 0.4,
		TaskInsts:      3000,
		RequestInsts:   1400,
		ShufflePerByte: 0.5,
		HeapMB:         32,
		Mix:            nativeMix,
		SysCPUFactor:   8,
	}
}

// Native returns the near-empty stack under the comparator suites
// (SPEC, PARSEC, HPCC run as plain compiled binaries).
func Native() Descriptor {
	return Descriptor{
		Name:   "Native",
		CodeKB: 48, HotKB: 32, ColdFrac: 0.02,
		ReadInsts: 2, EmitInsts: 1,
		TaskInsts:    50,
		HeapMB:       2,
		Mix:          nativeMix,
		SysCPUFactor: 1,
	}
}
