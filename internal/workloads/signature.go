package workloads

import (
	"encoding/json"
	"fmt"

	"repro/internal/stack"
)

// Signature returns a stable content identity for everything
// Run(w, probe, budget) depends on besides the probe and the budget:
// the workload ID (which seeds the run's RNG streams and stack
// layout), the kernel's type, name and configuration, and the full
// software-stack descriptor.
//
// IDs alone are not unique identities across rosters — Table 2's
// "H-Difference" runs on Hive while the 77-roster's "H-Difference"
// runs on Hadoop — so content-keyed artefacts (cached profiles, sweep
// curves) must key on this signature, never on the bare ID.
func Signature(w Workload) string {
	kcfg, err := json.Marshal(w.Kernel)
	if err != nil {
		// Closure kernels (KernelFunc) carry no marshalable config;
		// their name is unique within this repository's rosters.
		kcfg = nil
	}
	sig := struct {
		ID         string
		KernelType string
		KernelName string
		KernelCfg  json.RawMessage `json:",omitempty"`
		Stack      stack.Descriptor
	}{
		ID:         w.ID,
		KernelType: fmt.Sprintf("%T", w.Kernel),
		KernelName: w.Kernel.Name(),
		KernelCfg:  kcfg,
		Stack:      w.Stack,
	}
	b, err := json.Marshal(sig)
	if err != nil {
		panic("workloads: unmarshalable signature for " + w.ID + ": " + err.Error())
	}
	return string(b)
}
