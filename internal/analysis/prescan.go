package analysis

import "wizgo/internal/wasm"

// preInfo is the per-function prescan result.
type preInfo struct {
	callees []uint32 // direct call targets (function index space)
	// writes is true when the body itself can modify linear memory:
	// stores, memory.fill/copy/grow, or call_indirect (unknown callee).
	writes bool
}

// prescan walks a validated body once, collecting call sites and the
// memory-write flag. A body that fails to decode (cannot happen after
// validation) is reported as a writer.
func prescan(f *wasm.Func) preInfo {
	var pre preInfo
	undecodable := preInfo{writes: true}
	r := wasm.NewReader(f.Body)
	for r.Len() > 0 {
		op, err := r.ReadOpcode()
		if err != nil {
			return undecodable
		}
		if op == wasm.OpCall {
			idx, err := r.U32()
			if err != nil {
				return undecodable
			}
			pre.callees = append(pre.callees, idx)
			continue
		}
		if err := r.SkipImm(op); err != nil {
			return undecodable
		}
		if writesMemory(op) {
			pre.writes = true
		}
	}
	return pre
}

// writesMemory reports whether op can modify linear memory by itself:
// stores, bulk fill/copy, grow, and call_indirect (unknown callee).
func writesMemory(op wasm.Opcode) bool {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8,
		wasm.OpI32Store16, wasm.OpI64Store16,
		wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32,
		wasm.OpI64Store, wasm.OpF64Store,
		wasm.OpMemoryGrow, wasm.OpMemoryFill, wasm.OpMemoryCopy,
		wasm.OpCallIndirect:
		return true
	}
	return false
}
