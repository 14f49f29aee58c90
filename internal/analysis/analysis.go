// Package analysis is wizgo's static-analysis pass. It runs once per
// module, after validation and before any tier compiles, and derives
// one fact per function: writes-memory. A syntactic per-function scan
// plus a call-graph fixpoint marks functions that cannot modify linear
// memory (nor reach one that can) as validate.FuncInfo.ReadOnly. The
// instance pool skips memory reset after invoking only read-only
// exports.
//
// It deliberately proves nothing that would let an executor drop a
// bounds check, an interrupt poll or a fuel charge: the repository
// benchmark showed no exec_ms.* figure moving with such facts on any
// workload (README, "Static analysis").
package analysis

import (
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// Version identifies the fact-producing algorithm. It is folded into
// the disk-cache fingerprint and compiler revision: bump it whenever
// the meaning or encoding of facts changes so stale artifacts are
// discarded rather than misread.
const Version = "a3"

// Stats summarizes one module's analysis, for telemetry counters and
// the benchmark harness.
type Stats struct {
	Funcs int // functions analyzed
	// BoundsProven and PollsElided are always zero: the facts they
	// counted are gone, the fields stay because bench/ reads them.
	BoundsProven int
	PollsElided  int
	ReadOnly     int // functions proven not to write memory
}

// Module scans every function body of a validated module and sets
// infos[i].ReadOnly. infos must be the validator's output for m
// (len(infos) == len(m.Funcs)). The analysis is pure: it never fails —
// a function it cannot reason about is simply left a writer.
func Module(m *wasm.Module, infos []validate.FuncInfo) Stats {
	if len(infos) != len(m.Funcs) {
		return Stats{}
	}
	pres := make([]preInfo, len(m.Funcs))
	for i := range m.Funcs {
		pres[i] = prescan(&m.Funcs[i])
	}
	for i, w := range propagateWrites(m, pres) {
		infos[i].ReadOnly = !w
	}
	return StatsFromInfos(infos)
}

// StatsFromInfos computes the module summary from the bits already
// attached to infos — shared with the artifact-rehydration path, where
// the bits are deserialized rather than derived, so warm and cold
// processes report the same numbers.
func StatsFromInfos(infos []validate.FuncInfo) Stats {
	st := Stats{Funcs: len(infos)}
	for i := range infos {
		if infos[i].ReadOnly {
			st.ReadOnly++
		}
	}
	return st
}

// propagateWrites computes, for each module-defined function, whether it
// can modify linear memory directly or through any reachable callee.
// Imported functions and call_indirect targets are conservatively
// assumed to write.
func propagateWrites(m *wasm.Module, pres []preInfo) []bool {
	imported := m.NumImportedFuncs()
	writes := make([]bool, len(pres))
	for i, pre := range pres {
		writes[i] = pre.writes
		for _, c := range pre.callees {
			if int(c) < imported {
				writes[i] = true // host import: unknown effects
				break
			}
		}
	}
	// Fixpoint over the local call graph; len(pres) is small and the
	// graph is shallow, so a simple iterate-until-stable loop is fine.
	for changed := true; changed; {
		changed = false
		for i, pre := range pres {
			if writes[i] {
				continue
			}
			for _, c := range pre.callees {
				li := int(c) - imported
				if li >= 0 && li < len(writes) && writes[li] {
					writes[i] = true
					changed = true
					break
				}
			}
		}
	}
	return writes
}
