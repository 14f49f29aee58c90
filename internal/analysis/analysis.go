// Package analysis is wizgo's static-analysis pass. It runs once per
// module, after the per-function validation (and compilation, which
// reads no fact of it), and derives one fact per function:
// writes-memory. It reads no bytecode: the
// validator's walk already noted, per function, whether the body holds
// no memory-writing instruction (validate.FuncInfo.NoWrites) and whom
// it calls (Callees). What is left here is the call-graph fixpoint over
// those, marking functions that cannot modify linear memory (nor reach
// one that can) as validate.FuncInfo.ReadOnly. The instance pool skips
// memory reset after invoking only read-only exports.
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

// Module sets infos[i].ReadOnly from the NoWrites bits and Callees
// lists the validator left in infos, which must be its output for m
// (len(infos) == len(m.Funcs)); infos from anywhere else carry neither
// and come out all writers. It reads only those two fields, so a second
// call on the same infos changes nothing. The analysis is pure: it never
// fails — a function it cannot reason about is simply left a writer.
func Module(m *wasm.Module, infos []validate.FuncInfo) Stats {
	if len(infos) != len(m.Funcs) {
		return Stats{}
	}
	for i, w := range propagateWrites(m.NumImportedFuncs(), infos) {
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
// Imported functions (indices below imported) and call_indirect targets
// are conservatively assumed to write.
func propagateWrites(imported int, infos []validate.FuncInfo) []bool {
	writes := make([]bool, len(infos))
	for i := range infos {
		writes[i] = !infos[i].NoWrites
		for _, c := range infos[i].Callees {
			if int(c) < imported {
				writes[i] = true // host import: unknown effects
				break
			}
		}
	}
	// Fixpoint over the local call graph; len(infos) is small and the
	// graph is shallow, so a simple iterate-until-stable loop is fine.
	for changed := true; changed; {
		changed = false
		for i := range infos {
			if writes[i] {
				continue
			}
			for _, c := range infos[i].Callees {
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
